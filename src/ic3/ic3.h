// IC3/PDR engine with the features the paper's study needs:
//  * "just assume" constraints: other properties asserted on all non-final
//    steps, implementing local proofs w.r.t. the projection T_P (§4, §7-A);
//  * state lifting that either respects or ignores the assumed-property
//    constraints (§7-A, ablated in Tables VIII/IX);
//  * strengthening-clause re-use: seed clauses from earlier runs are
//    re-validated (largest self-inductive subset) and installed at F_∞
//    (§6-B, §7-B, ablated in Table VII);
//  * inductive invariant export for the clause database;
//  * counterexample traces built from lifted obligation chains, with the
//    universal-lifting property making reconstruction purely simulative.
// The engine keeps two SAT contexts (ic3/frames.h): one activation-literal
// frame solver for every frame and a lift companion, both replays of one
// cnf::CnfTemplate.
#ifndef JAVER_IC3_IC3_H
#define JAVER_IC3_IC3_H

#include <memory>
#include <vector>

#include "base/status.h"
#include "base/timer.h"
#include "cnf/template.h"
#include "ic3/frames.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "ts/trace.h"
#include "ts/transition_system.h"

namespace javer::obs {
class MetricsRegistry;
class TaskProgress;
}  // namespace javer::obs

namespace javer::ic3 {

struct Ic3Options {
  // Property indices assumed to hold on non-final steps (local proofs).
  // Empty = global proof.
  std::vector<std::size_t> assumed;
  // §7-A: when true, lifted predecessor cubes are guaranteed to satisfy
  // the assumed properties (no spurious local CEXs, smaller cubes); when
  // false, lifting ignores them (larger cubes, possible spurious CEXs that
  // the caller must detect and retry in respecting mode).
  bool lifting_respects_constraints = false;
  // Candidate invariant clauses from earlier runs, as cubes (clause =
  // negation of cube). Re-validated before use.
  std::vector<ts::Cube> seed_clauses;
  // Simplify the transition-relation template (subsumption + bounded
  // variable elimination, sat/simp/) once, when it is built.
  bool simplify = false;

  // The engine encodes the transition relation once into a
  // cnf::CnfTemplate and replays it into every context it creates (the
  // frame solver, the lift companion, seed checkers, rebuilds). This is
  // an optional shared memo of those templates (cnf/template.h): the
  // schedulers pass one per run so sibling engines with the same
  // {target} ∪ assumed set share the encoding; null = the engine keeps a
  // private one. Must outlive the engine; thread-safe.
  cnf::TemplateCache* template_cache = nullptr;

  double time_limit_seconds = 0.0;
  int max_frames = 100000;
  std::size_t max_obligations = 2u << 20;
  // Rebuild a context once this many activation literals retired in it
  // (the frame solver's budget is this times its frame count plus two).
  int rebuild_threshold = 500;
  // Observability (src/obs): instant events for solver rebuilds and
  // F_inf lemma installs, tagged with the caller's (shard, property). A
  // default (disabled) sink costs one branch per would-be event; the
  // heavyweight per-query counters stay in Ic3Stats regardless.
  obs::TraceSink trace;
  // Phase profiler (obs/profile.h): per-SAT-query latency histograms for
  // consecution / bad_query / lift / mic / push plus template replay,
  // keyed by this sink's (shard, property). The sample counts of the
  // query phases equal the matching Ic3Stats counters exactly (seed
  // validation is neither counted nor profiled). Disabled sink = one
  // branch per query, no clock reads.
  obs::ProfileSink profile;
  // Live progress cell (obs/monitor.h): the budget poll publishes
  // frames/obligations/activity through it. Null = disabled.
  obs::TaskProgress* progress = nullptr;
};

struct Ic3Stats {
  std::uint64_t obligations = 0;
  std::uint64_t clauses_added = 0;
  std::uint64_t consecution_queries = 0;
  std::uint64_t mic_queries = 0;
  std::uint64_t bad_queries = 0;
  std::uint64_t lift_queries = 0;
  std::uint64_t seed_clauses_kept = 0;
  std::uint64_t seed_clauses_dropped = 0;
  std::uint64_t solver_rebuilds = 0;
  std::uint64_t mined_invariants = 0;
  // Encode-reuse accounting (cnf/template.h). A "context" is any SAT
  // solver this engine constructed (frame solver, lift companion, seed
  // checker — including rebuilds); encode_seconds is the wall-clock spent
  // replaying the template into them plus template builds this engine
  // performed.
  std::uint64_t solver_contexts_created = 0;
  std::uint64_t peak_live_solvers = 0;
  std::uint64_t template_builds = 0;          // encoded from scratch
  std::uint64_t template_instantiations = 0;  // contexts replayed from one
  double encode_seconds = 0.0;
  // Cross-engine lemma exchange (mp/exchange): candidates offered via
  // add_lemma_candidates that survived re-validation and were installed
  // at F_inf, candidates that failed it, and candidates that were already
  // subsumed by F_inf (e.g. they arrived through the ClauseDb seeds too).
  std::uint64_t lemmas_imported = 0;
  std::uint64_t lemmas_rejected = 0;
  std::uint64_t lemmas_known = 0;
  // Aggregated over every SAT context this run created (including retired
  // and rebuilt ones).
  std::uint64_t sat_propagations = 0;
  std::uint64_t sat_conflicts = 0;
  std::uint64_t sat_decisions = 0;
  // Preprocessing totals (zero unless Ic3Options::simplify).
  std::uint64_t simp_vars_eliminated = 0;
  std::uint64_t simp_clauses_in = 0;
  std::uint64_t simp_clauses_out = 0;
};

// Folds one engine's cumulative stats into an obs::MetricsRegistry under
// the canonical "ic3." / "sat." / "simp." counter names. The schedulers
// call this exactly once per closed PropertyTask (and once per joint
// iteration), so the registry's totals reconcile exactly with the summed
// per-property Ic3Stats of the MultiResult.
void fold_stats(obs::MetricsRegistry& metrics, const Ic3Stats& stats);

// A resource slice for one resumable run() call. Zero fields are
// unlimited. Time is wall-clock for this slice; conflicts count SAT
// conflicts across every solver context the engine owns.
struct Ic3Budget {
  double time_slice_seconds = 0.0;
  std::uint64_t conflict_slice = 0;
};

struct Ic3Result {
  CheckStatus status = CheckStatus::Unknown;
  // Unknown verdicts only: true when the engine merely exhausted its
  // run-slice budget and kept its frames, so another run() call continues
  // where this one stopped; false when a hard limit (overall time limit,
  // max_frames, obligation cap) ended the run for good.
  bool resumable = false;
  // Number of time frames unfolded when the engine stopped (the paper's
  // "#time frames" metric, Tables I and X).
  int frames = 0;
  ts::Trace cex;  // valid when status == Fails
  // On Holds: cubes whose negations, conjoined, form an inductive
  // strengthening: I → Inv, Inv ∧ constr ∧ assumed ∧ T → Inv',
  // Inv ∧ constr → P.
  std::vector<ts::Cube> invariant;
  // Cumulative over the whole engine lifetime, not just the last slice.
  Ic3Stats stats;
};

class Ic3 {
 public:
  Ic3(const ts::TransitionSystem& ts, std::size_t target_prop,
      Ic3Options opts = {});
  ~Ic3();

  // One-shot run bounded only by Ic3Options limits.
  Ic3Result run();
  // Budgeted, resumable run: does at most `budget` worth of work, then
  // returns Unknown with resumable=true, keeping frames, F_inf clauses and
  // solver contexts. In-flight proof obligations are discarded on suspend
  // (sound: the pending bad state is re-derived by the next slice's
  // query). Call repeatedly until the result is terminal or not resumable.
  Ic3Result run(const Ic3Budget& budget);

  // --- cross-engine lemma exchange (mp/exchange) ---

  // Queues candidate invariant cubes (e.g. a sibling BMC sweep's learned
  // prefix units). Nothing is trusted: at the start of the next run()
  // call each candidate is re-validated in this engine's own context —
  // init disjointness plus consecution relative to F_inf under this
  // engine's assumption set — and only survivors are installed at F_inf,
  // so arbitrary (even unsound) candidates can never flip a verdict.
  void add_lemma_candidates(std::vector<ts::Cube> cubes);

 private:
  struct Timeout {};  // internal control-flow signal: hard budget expiry
  struct Suspend {};  // internal control-flow signal: slice budget expiry

  // Where a resumed run() picks up. Each stage is idempotent or keeps its
  // progress in member state, so replaying a suspended stage is sound.
  enum class Phase : std::uint8_t {
    SeedValidation,  // validate_seed_clauses (restarts cleanly on resume)
    Mining,          // mine_singleton_invariants (skips known cubes)
    Depth0,          // initial-state property check
    Main,            // blocking / propagation loop
    Done,            // terminal verdict reached
  };

  struct Obligation {
    ts::Cube cube;
    std::vector<bool> state;   // concrete witness state in `cube`
    std::vector<bool> inputs;  // input driving every cube state onward
    int frame = 0;
    int parent = -1;  // index into pool_, towards the bad state
    int depth = 0;    // distance to the bad obligation
  };

  // --- solver contexts ---
  // Level addressing F_inf in the queries below.
  static constexpr int kLevelInf = MonolithicFrameSolver::kFrameInf;

  // All engine logic goes through these; only construction/rebuild code
  // touches a context directly.
  sat::SolveResult consecution(int k, const ts::Cube& cube,
                               bool add_negation,
                               std::vector<std::size_t>* core);
  sat::SolveResult bad_query(int k);
  // Model extraction for the last Sat frame query. Never triggers a
  // rebuild (the model must survive the query that produced it).
  std::vector<bool> model_state() const;
  std::vector<bool> model_inputs() const;
  ts::Cube lift_predecessor(const std::vector<bool>& state,
                            const std::vector<bool>& inputs,
                            const ts::Cube& target, bool respect_assumed);
  ts::Cube lift_bad(const std::vector<bool>& state,
                    const std::vector<bool>& inputs);

  // The frame solver, created on first use and rebuilt once its retired
  // activation literals pass the rebuild threshold.
  MonolithicFrameSolver& mono();
  // Lifting context: lift queries need a context free of blocking clauses
  // (see the MonolithicFrameSolver header note), so the engine keeps this
  // one companion solver.
  FrameSolver& lift_ctx();
  // (Re)creates mono_ with `frames` frames and replays the F_inf and
  // delta-frame clause lists into it.
  void install_mono(int frames);
  void rebuild_mono();
  StepContext::Config base_config();
  // A blocking-clause-free FrameSolver: the lift companion, or a
  // throwaway seed-clause checker.
  std::unique_ptr<FrameSolver> make_solver();
  // The engine's transition-relation template: fetched from the shared
  // cache (or a private one) on first use.
  const cnf::CnfTemplate* acquire_template();
  // Folds construction cost/counters of a just-created context into
  // stats_. `extra_live` covers contexts not (yet) stored in a member —
  // a solver still in the caller's hands or a throwaway seed checker —
  // so peak_live_solvers counts every simultaneously-live context.
  void note_context_created(double seconds, std::uint64_t extra_live);
  void ensure_frame(int k);

  // --- blocking ---
  // Returns false when a counterexample was found (cex_ is set).
  bool block_from_bad_state();
  bool block_obligation(int root_index);
  void enqueue(int obligation_index);
  int pop_min_frame();
  // Highest level >= `from` whose clause set already blocks `cube`
  // (syntactic subsumption), or from-1 if none; INT_MAX for F_inf.
  int highest_blocked_level(const ts::Cube& cube, int from) const;
  void add_blocked_cube(const ts::Cube& cube, int level);
  // Installs a cube at F_inf: its negation is inductive relative to the
  // path constraints alone (PDR's "push to infinity").
  void add_inf_cube(const ts::Cube& cube);

  // --- generalization (generalize.cpp) ---
  ts::Cube shrink_with_core(const ts::Cube& cube,
                            const std::vector<std::size_t>& core) const;
  ts::Cube repair_init_intersection(const ts::Cube& shrunk,
                                    const ts::Cube& original) const;
  // MIC literal dropping with consecution checked at `level` (a frame
  // index, or kLevelInf for the F_inf context).
  ts::Cube mic(ts::Cube cube, int level);
  int push_forward(const ts::Cube& cube, int from_level);

  // --- phase profiling (obs/profile.h) ---
  // Counted consecution call: bumps stats_.consecution_queries (or
  // mic_queries via the mic histogram site) and samples `histo`. Every
  // *counted* SAT query goes through these wrappers so the profiler's
  // per-phase sample counts reconcile exactly with Ic3Stats.
  sat::SolveResult counted_consecution(obs::LatencyHisto* histo,
                                       std::uint64_t Ic3Stats::*counter,
                                       int k, const ts::Cube& cube,
                                       bool add_negation,
                                       std::vector<std::size_t>* core);

  // --- counterexamples ---
  // Builds the trace: `init_state` -[first_inputs]-> chain(ob) ... bad.
  void build_cex(const std::vector<bool>& init_state,
                 const std::vector<bool>& first_inputs, int chain_start);
  // An initial state contained in `cube` (which intersects I).
  std::vector<bool> initial_state_in_cube(const ts::Cube& cube) const;

  // --- proof ---
  void validate_seed_clauses();
  // Drains lemma_queue_: re-validates each candidate and installs the
  // survivors at F_inf. Runs after the mining phase so F_inf plumbing
  // exists; on budget expiry the untested remainder is dropped (lemma
  // traffic is best-effort).
  void absorb_lemma_candidates();
  // One-time pass installing every latch literal that contradicts its
  // reset and is one-step inductive relative to the path constraints as
  // an F_inf clause. Under JA assumptions this catches the "other
  // property forbids the trigger" invariants instantly (e.g. a stage
  // latch that can only rise when an assumed property has already
  // failed), which frame-relative generalization discovers only slowly.
  void mine_singleton_invariants();
  void propagate_and_check_fixpoint();
  sat::SolveResult checked(sat::SolveResult r) const;

  // --- budget slicing ---
  // Installs the effective deadline for this run() call: the tighter of
  // the overall time limit and the slice. Solver contexts poll it.
  void begin_slice(const Ic3Budget& budget);
  // Throws Timeout on overall expiry, Suspend on slice expiry.
  void poll_budget() const;
  std::uint64_t total_conflicts() const;

  // --- statistics ---
  // Folds a retiring solver context's SAT counters into stats_.
  void absorb_stats(const StepContext& fs);
  // stats_ plus the counters of the still-live solver contexts; pure, so
  // every slice can report cumulative totals.
  Ic3Stats finalize_stats() const;

  const ts::TransitionSystem& ts_;
  std::size_t target_prop_;
  Ic3Options opts_;
  Deadline deadline_;  // overall limit, ticking since construction
  // Effective deadline of the current run() call (overall ∧ slice). All
  // solver contexts hold a pointer to this member; reassigned per slice.
  Deadline slice_deadline_;
  bool slicing_ = false;
  std::uint64_t slice_conflict_limit_ = 0;  // absolute; 0 = unlimited
  Phase phase_ = Phase::SeedValidation;
  CheckStatus final_status_ = CheckStatus::Unknown;
  // Encode-once transition relation shared by every context this engine
  // creates; from opts_.template_cache or the private own_cache_.
  std::shared_ptr<const cnf::CnfTemplate> tmpl_;
  std::unique_ptr<cnf::TemplateCache> own_cache_;

  std::unique_ptr<MonolithicFrameSolver> mono_;
  std::unique_ptr<FrameSolver> lift_solver_;
  std::vector<std::vector<ts::Cube>> frame_cubes_;  // delta encoding
  std::vector<ts::Cube> inf_cubes_;  // F_inf: seeds + globally inductive
  std::vector<ts::Cube> lemma_queue_;   // candidates pending re-validation

  std::vector<Obligation> pool_;
  // Min-heap entries: (frame, insertion order, pool index).
  std::vector<std::tuple<int, std::uint64_t, int>> queue_;
  std::uint64_t queue_ticket_ = 0;

  int top_frame_ = 0;  // N: the current working frame
  bool fixpoint_found_ = false;
  int fixpoint_level_ = -1;
  ts::Trace cex_;
  Ic3Stats stats_;

  // Profiler slots, resolved once at construction (null = profiling
  // off). Stable for the profiler's lifetime.
  obs::LatencyHisto* prof_consecution_ = nullptr;
  obs::LatencyHisto* prof_bad_ = nullptr;
  obs::LatencyHisto* prof_lift_ = nullptr;
  obs::LatencyHisto* prof_mic_ = nullptr;
  obs::LatencyHisto* prof_push_ = nullptr;
  obs::LatencyHisto* prof_replay_ = nullptr;
};

}  // namespace javer::ic3

#endif  // JAVER_IC3_IC3_H
