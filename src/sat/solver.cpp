#include "sat/solver.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "fault/fault.h"

namespace javer::sat {

namespace {

constexpr double kVarDecay = 0.95;
constexpr double kClauseDecay = 0.999;
constexpr double kActivityRescale = 1e100;
constexpr int kRestartBase = 100;

// Learned-clause cap: start at this fraction of the problem clauses (with a
// floor for tiny formulas) and grow geometrically at every reduction.
constexpr double kLearntSizeFactor = 1.0 / 3.0;
constexpr double kLearntSizeInc = 1.1;
constexpr double kMinLearnts = 2000.0;

// The Luby sequence (1,1,2,1,1,2,4,...) scaled by kRestartBase controls
// restart intervals, as in MiniSat.
double luby(double y, int x) {
  int size = 1;
  int seq = 0;
  while (size < x + 1) {
    seq++;
    size = 2 * size + 1;
  }
  while (size - 1 != x) {
    size = (size - 1) >> 1;
    seq--;
    x = x % size;
  }
  return std::pow(y, seq);
}

}  // namespace

Solver::Solver() = default;

void Solver::reserve(int vars, std::size_t clauses, std::size_t literals) {
  if (vars <= 0) return;
  std::size_t n = assign_.size() + static_cast<std::size_t>(vars);
  assign_.reserve(n);
  level_.reserve(n);
  reason_.reserve(n);
  activity_.reserve(n);
  heap_pos_.reserve(n);
  polarity_.reserve(n);
  decision_.reserve(n);
  seen_.reserve(n);
  model_.reserve(n);
  watches_.reserve(2 * n);
  heap_.reserve(n);
  trail_.reserve(n);
  // Arena layout: 3 header words per clause plus one word per literal
  // (clause_arena.h); units and binaries never reach the arena, so this
  // bounds the bulk load from above.
  ca_.reserve(ca_.size() + 3 * clauses + literals);
}

Var Solver::new_var() {
  Var v = static_cast<Var>(assign_.size());
  assign_.push_back(kUndef);
  level_.push_back(0);
  reason_.push_back(kCRefUndef);
  activity_.push_back(0.0);
  heap_pos_.push_back(-1);
  polarity_.push_back(0);
  decision_.push_back(1);
  seen_.push_back(0);
  model_.push_back(kUndef);
  watches_.emplace_back();
  watches_.emplace_back();
  heap_insert(v);
  return v;
}

bool Solver::add_clause(std::span<const Lit> lits) {
  assert(decision_level() == 0);
  if (!ok_) return false;

  // Normalize: sort, drop duplicates and false literals, detect tautology
  // and satisfied clauses against the level-0 assignment.
  std::vector<Lit> ps(lits.begin(), lits.end());
  std::sort(ps.begin(), ps.end());
  std::vector<Lit> out;
  out.reserve(ps.size());
  Lit prev = kUndefLit;
  for (Lit l : ps) {
    assert(l.var() >= 0 && l.var() < num_vars());
    if (value(l) == kTrue || l == ~prev) return true;  // satisfied/tautology
    if (value(l) == kFalse || l == prev) continue;     // false or duplicate
    out.push_back(l);
    prev = l;
  }

  if (out.empty()) {
    ok_ = false;
    return false;
  }
  if (out.size() == 1) {
    enqueue(out[0], kCRefUndef);
    ok_ = (propagate() == kCRefUndef);
    return ok_;
  }
  CRef cr = alloc_clause(out, /*learnt=*/false);
  attach_clause(cr);
  clauses_.push_back(cr);
  num_problem_clauses_++;
  return true;
}

CRef Solver::alloc_clause(std::span<const Lit> lits, bool learnt) {
  fault::inject_point("sat.alloc");
  return ca_.alloc(lits, learnt);
}

void Solver::attach_clause(CRef cr) {
  const Clause& c = ca_[cr];
  assert(c.size() >= 2);
  watches_[(~c[0]).code()].push_back({cr, c[1]});
  watches_[(~c[1]).code()].push_back({cr, c[0]});
}

void Solver::detach_clause(CRef cr) {
  const Clause& c = ca_[cr];
  for (int i = 0; i < 2; ++i) {
    auto& ws = watches_[(~c[i]).code()];
    for (std::size_t j = 0; j < ws.size(); ++j) {
      if (ws[j].cref == cr) {
        ws[j] = ws.back();
        ws.pop_back();
        break;
      }
    }
  }
}

void Solver::remove_clause(CRef cr) {
  Clause& c = ca_[cr];
  detach_clause(cr);
  if (!c.learnt()) num_problem_clauses_--;
  ca_.free_clause(cr);
}

bool Solver::clause_satisfied(const Clause& c) const {
  for (Lit l : c) {
    if (value(l) == kTrue) return true;
  }
  return false;
}

void Solver::enqueue(Lit l, CRef reason) {
  assert(value(l) == kUndef);
  Var v = l.var();
  assign_[v] = l.sign() ? kFalse : kTrue;
  level_[v] = decision_level();
  reason_[v] = reason;
  trail_.push_back(l);
}

CRef Solver::propagate() {
  CRef conflict = kCRefUndef;
  while (qhead_ < trail_.size()) {
    Lit p = trail_[qhead_++];
    stats_.propagations++;
    auto& ws = watches_[p.code()];
    std::size_t i = 0;
    std::size_t j = 0;
    while (i < ws.size()) {
      Watcher w = ws[i];
      if (value(w.blocker) == kTrue) {  // clause already satisfied
        ws[j++] = ws[i++];
        continue;
      }
      Clause& c = ca_[w.cref];
      // Make sure the false watched literal (~p) is at position 1.
      Lit false_lit = ~p;
      if (c[0] == false_lit) std::swap(c[0], c[1]);
      assert(c[1] == false_lit);
      i++;

      Lit first = c[0];
      if (first != w.blocker && value(first) == kTrue) {
        ws[j++] = {w.cref, first};
        continue;
      }
      // Look for a new literal to watch.
      bool found = false;
      for (std::size_t k = 2; k < c.size(); ++k) {
        if (value(c[k]) != kFalse) {
          std::swap(c[1], c[k]);
          watches_[(~c[1]).code()].push_back({w.cref, first});
          found = true;
          break;
        }
      }
      if (found) continue;

      // Clause is unit or conflicting.
      ws[j++] = {w.cref, first};
      if (value(first) == kFalse) {
        conflict = w.cref;
        qhead_ = trail_.size();
        while (i < ws.size()) ws[j++] = ws[i++];
      } else {
        enqueue(first, w.cref);
      }
    }
    ws.resize(j);
    if (conflict != kCRefUndef) break;
  }
  return conflict;
}

std::uint32_t Solver::compute_lbd(const std::vector<Lit>& lits) {
  // Count distinct decision levels; small LBD correlates with usefulness.
  thread_local std::vector<std::uint8_t> seen_level;
  seen_level.assign(trail_lim_.size() + 2, 0);
  std::uint32_t lbd = 0;
  for (Lit l : lits) {
    int lev = level_[l.var()];
    if (lev >= 0 && static_cast<std::size_t>(lev) < seen_level.size() &&
        !seen_level[lev]) {
      seen_level[lev] = 1;
      lbd++;
    }
  }
  return lbd;
}

void Solver::analyze(CRef conflict, std::vector<Lit>& out_learnt,
                     int& out_level) {
  int path_count = 0;
  Lit p = kUndefLit;
  out_learnt.clear();
  out_learnt.push_back(kUndefLit);  // placeholder for the asserting literal
  std::size_t index = trail_.size();

  CRef confl = conflict;
  do {
    assert(confl != kCRefUndef);
    Clause& c = ca_[confl];
    if (c.learnt()) clause_bump(c);
    std::size_t start = (p == kUndefLit) ? 0 : 1;
    for (std::size_t k = start; k < c.size(); ++k) {
      Lit q = c[k];
      if (!seen_[q.var()] && level_[q.var()] > 0) {
        var_bump(q.var());
        seen_[q.var()] = 1;
        if (level_[q.var()] >= decision_level()) {
          path_count++;
        } else {
          out_learnt.push_back(q);
        }
      }
    }
    // Select next literal on the trail to resolve on.
    while (!seen_[trail_[index - 1].var()]) index--;
    index--;
    p = trail_[index];
    confl = reason_[p.var()];
    seen_[p.var()] = 0;
    path_count--;
  } while (path_count > 0);
  out_learnt[0] = ~p;

  // Conflict clause minimization (recursive).
  analyze_clear_.assign(out_learnt.begin(), out_learnt.end());
  std::uint32_t abstract_levels = 0;
  for (std::size_t i = 1; i < out_learnt.size(); ++i) {
    abstract_levels |= 1u << (level_[out_learnt[i].var()] & 31);
  }
  std::size_t keep = 1;
  for (std::size_t i = 1; i < out_learnt.size(); ++i) {
    Lit l = out_learnt[i];
    if (reason_[l.var()] == kCRefUndef ||
        !literal_redundant(l, abstract_levels)) {
      out_learnt[keep++] = l;
    }
  }
  out_learnt.resize(keep);

  // Find the backtrack level: the second-highest level in the clause.
  if (out_learnt.size() == 1) {
    out_level = 0;
  } else {
    std::size_t max_i = 1;
    for (std::size_t i = 2; i < out_learnt.size(); ++i) {
      if (level_[out_learnt[i].var()] > level_[out_learnt[max_i].var()]) {
        max_i = i;
      }
    }
    std::swap(out_learnt[1], out_learnt[max_i]);
    out_level = level_[out_learnt[1].var()];
  }

  for (Lit l : analyze_clear_) seen_[l.var()] = 0;
}

bool Solver::literal_redundant(Lit lit, std::uint32_t abstract_levels) {
  analyze_stack_.clear();
  analyze_stack_.push_back(lit);
  std::size_t top = analyze_clear_.size();
  while (!analyze_stack_.empty()) {
    Lit l = analyze_stack_.back();
    analyze_stack_.pop_back();
    assert(reason_[l.var()] != kCRefUndef);
    const Clause& c = ca_[reason_[l.var()]];
    for (std::size_t k = 1; k < c.size(); ++k) {
      Lit q = c[k];
      if (!seen_[q.var()] && level_[q.var()] > 0) {
        bool in_levels =
            (abstract_levels & (1u << (level_[q.var()] & 31))) != 0;
        if (reason_[q.var()] != kCRefUndef && in_levels) {
          seen_[q.var()] = 1;
          analyze_stack_.push_back(q);
          analyze_clear_.push_back(q);
        } else {
          for (std::size_t j = top; j < analyze_clear_.size(); ++j) {
            seen_[analyze_clear_[j].var()] = 0;
          }
          analyze_clear_.resize(top);
          return false;
        }
      }
    }
  }
  return true;
}

void Solver::analyze_final(Lit p) {
  // p is a failed assumption. Collect the subset of assumptions that forced
  // ~p, walking the implication graph back from the end of the trail.
  conflict_core_.clear();
  conflict_core_.push_back(p);
  if (decision_level() == 0) return;

  seen_[p.var()] = 1;
  for (std::size_t i = trail_.size();
       i > static_cast<std::size_t>(trail_lim_[0]);) {
    --i;
    Var x = trail_[i].var();
    if (!seen_[x]) continue;
    if (reason_[x] == kCRefUndef) {
      assert(level_[x] > 0);
      conflict_core_.push_back(trail_[i]);  // an assumption literal
    } else {
      const Clause& c = ca_[reason_[x]];
      for (std::size_t k = 1; k < c.size(); ++k) {
        if (level_[c[k].var()] > 0) seen_[c[k].var()] = 1;
      }
    }
    seen_[x] = 0;
  }
  seen_[p.var()] = 0;
}

void Solver::cancel_until(int level) {
  if (decision_level() <= level) return;
  for (std::size_t i = trail_.size();
       i > static_cast<std::size_t>(trail_lim_[level]);) {
    --i;
    Var v = trail_[i].var();
    polarity_[v] = (assign_[v] == kTrue) ? 1 : 0;  // phase saving
    assign_[v] = kUndef;
    reason_[v] = kCRefUndef;
    if (heap_pos_[v] < 0) heap_insert(v);
  }
  trail_.resize(trail_lim_[level]);
  trail_lim_.resize(level);
  qhead_ = trail_.size();
}

Lit Solver::pick_branch_lit() {
  while (!heap_empty()) {
    Var v = heap_pop();
    if (value(v) == kUndef && decision_[v]) {
      return Lit::make(v, /*negated=*/polarity_[v] == 0);
    }
  }
  return kUndefLit;
}

// --- activity heap -------------------------------------------------------

void Solver::heap_insert(Var v) {
  heap_pos_[v] = static_cast<int>(heap_.size());
  heap_.push_back(v);
  heap_sift_up(heap_pos_[v]);
}

void Solver::heap_update(Var v) {
  if (heap_pos_[v] >= 0) heap_sift_up(heap_pos_[v]);
}

Var Solver::heap_pop() {
  Var top = heap_[0];
  heap_pos_[top] = -1;
  Var last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    heap_[0] = last;
    heap_pos_[last] = 0;
    heap_sift_down(0);
  }
  return top;
}

void Solver::heap_sift_up(int pos) {
  Var v = heap_[pos];
  while (pos > 0) {
    int parent = (pos - 1) >> 1;
    if (activity_[heap_[parent]] >= activity_[v]) break;
    heap_[pos] = heap_[parent];
    heap_pos_[heap_[pos]] = pos;
    pos = parent;
  }
  heap_[pos] = v;
  heap_pos_[v] = pos;
}

void Solver::heap_sift_down(int pos) {
  Var v = heap_[pos];
  int size = static_cast<int>(heap_.size());
  while (true) {
    int child = 2 * pos + 1;
    if (child >= size) break;
    if (child + 1 < size &&
        activity_[heap_[child + 1]] > activity_[heap_[child]]) {
      child++;
    }
    if (activity_[heap_[child]] <= activity_[v]) break;
    heap_[pos] = heap_[child];
    heap_pos_[heap_[pos]] = pos;
    pos = child;
  }
  heap_[pos] = v;
  heap_pos_[v] = pos;
}

void Solver::var_bump(Var v) {
  activity_[v] += var_inc_;
  if (activity_[v] > kActivityRescale) {
    for (double& a : activity_) a *= 1e-100;
    var_inc_ *= 1e-100;
  }
  heap_update(v);
}

void Solver::var_decay() { var_inc_ /= kVarDecay; }

void Solver::clause_bump(Clause& c) {
  c.set_activity(c.activity() + static_cast<float>(cla_inc_));
  if (c.activity() > 1e20f) {
    for (CRef cr : learnts_) {
      Clause& lc = ca_[cr];
      if (!lc.deleted()) lc.set_activity(lc.activity() * 1e-20f);
    }
    cla_inc_ *= 1e-20;
  }
}

// --- learned clause management -------------------------------------------

void Solver::reduce_learned() {
  // Keep clauses that are reasons, binary, or glue (LBD <= 2); delete the
  // least active half of the rest.
  std::vector<CRef> cands;
  for (CRef cr : learnts_) {
    Clause& c = ca_[cr];
    if (c.deleted()) continue;
    bool locked = reason_[c[0].var()] == cr && value(c[0]) == kTrue;
    if (locked || c.size() <= 2 || c.lbd() <= 2) continue;
    cands.push_back(cr);
  }
  std::sort(cands.begin(), cands.end(), [this](CRef a, CRef b) {
    const Clause& ca = ca_[a];
    const Clause& cb = ca_[b];
    if (ca.lbd() != cb.lbd()) return ca.lbd() > cb.lbd();
    return ca.activity() < cb.activity();
  });
  std::size_t to_delete = cands.size() / 2;
  for (std::size_t i = 0; i < to_delete; ++i) {
    remove_clause(cands[i]);
    stats_.learned_deleted++;
  }
  learnts_.erase(std::remove_if(learnts_.begin(), learnts_.end(),
                                [this](CRef cr) { return ca_[cr].deleted(); }),
                 learnts_.end());
  check_garbage();
}

void Solver::simplify_level0() {
  assert(decision_level() == 0);
  // Level-0 assignments are facts; their reasons are never inspected again.
  for (Lit l : trail_) reason_[l.var()] = kCRefUndef;
  auto sweep = [this](std::vector<CRef>& list) {
    std::size_t j = 0;
    for (CRef cr : list) {
      if (ca_[cr].deleted()) continue;
      if (clause_satisfied(ca_[cr])) {
        remove_clause(cr);
      } else {
        list[j++] = cr;
      }
    }
    list.resize(j);
  };
  sweep(clauses_);
  sweep(learnts_);
  check_garbage();
}

// --- garbage collection ---------------------------------------------------

void Solver::check_garbage() {
  if (ca_.wasted() > ca_.size() / 5) garbage_collect();
}

void Solver::garbage_collect() {
  // Copy every live clause into a fresh arena, chasing each reference once
  // (reloc is idempotent through forwarding pointers): watchers, reasons of
  // assigned variables, and the two clause lists.
  ClauseArena to;
  to.reserve(ca_.size() - ca_.wasted());
  for (auto& ws : watches_) {
    for (Watcher& w : ws) ca_.reloc(w.cref, to);
  }
  for (Lit l : trail_) {
    Var v = l.var();
    if (reason_[v] != kCRefUndef) ca_.reloc(reason_[v], to);
  }
  for (CRef& cr : clauses_) ca_.reloc(cr, to);
  for (CRef& cr : learnts_) ca_.reloc(cr, to);
  ca_ = std::move(to);
  stats_.garbage_collections++;
}

// --- top-level search -----------------------------------------------------

SolveResult Solver::solve(std::initializer_list<Lit> assumptions) {
  return solve(std::span<const Lit>(assumptions.begin(), assumptions.size()));
}

SolveResult Solver::solve(std::span<const Lit> assumptions) {
  stats_.solves++;
  conflict_core_.clear();
  if (!ok_) return SolveResult::Unsat;
  // Respect an already-expired deadline even for trivial queries that
  // would never reach the in-search budget checks.
  if (deadline_ != nullptr && deadline_->expired()) {
    return SolveResult::Undecided;
  }

  assumptions_.assign(assumptions.begin(), assumptions.end());

  // Never shrink the cap across incremental solves; raise it when the
  // problem grew. Geometric growth happens at each reduction.
  max_learnts_ = std::max(
      {max_learnts_, num_problem_clauses_ * kLearntSizeFactor, kMinLearnts});

  SolveResult result = SolveResult::Undecided;
  int restart_count = 0;
  while (result == SolveResult::Undecided) {
    double budget = luby(2.0, restart_count++) * kRestartBase;
    result = search(static_cast<std::int64_t>(budget));
    // Check the deadline between restarts as well.
    if (result == SolveResult::Undecided && deadline_ != nullptr &&
        deadline_->expired()) {
      break;
    }
  }

  if (result == SolveResult::Sat) {
    model_ = assign_;
  }
  cancel_until(0);
  return result;
}

SolveResult Solver::search(std::int64_t conflicts_before_restart) {
  std::int64_t conflicts_here = 0;
  std::vector<Lit> learnt;

  while (true) {
    CRef conflict = propagate();
    if (conflict != kCRefUndef) {
      stats_.conflicts++;
      conflicts_here++;
      if (decision_level() == 0) return SolveResult::Unsat;

      int bt_level = 0;
      analyze(conflict, learnt, bt_level);
      cancel_until(bt_level);
      if (learnt.size() == 1) {
        enqueue(learnt[0], kCRefUndef);
      } else {
        CRef cr = alloc_clause(learnt, /*learnt=*/true);
        Clause& c = ca_[cr];
        c.set_lbd(compute_lbd(learnt));
        attach_clause(cr);
        learnts_.push_back(cr);
        clause_bump(c);
        enqueue(learnt[0], cr);
      }
      var_decay();
      cla_inc_ /= kClauseDecay;

      if ((stats_.conflicts & 1023) == 0 && deadline_ != nullptr &&
          deadline_->expired()) {
        cancel_until(0);
        return SolveResult::Undecided;
      }
    } else {
      if (conflicts_here >= conflicts_before_restart) {
        stats_.restarts++;
        cancel_until(0);
        return SolveResult::Undecided;
      }
      if (decision_level() == 0) simplify_level0();
      if (learnts_.size() >= max_learnts_ + trail_.size()) {
        reduce_learned();
        max_learnts_ *= kLearntSizeInc;
      }

      Lit next = kUndefLit;
      while (decision_level() < static_cast<int>(assumptions_.size())) {
        Lit a = assumptions_[decision_level()];
        if (value(a) == kTrue) {
          trail_lim_.push_back(static_cast<int>(trail_.size()));
        } else if (value(a) == kFalse) {
          analyze_final(a);
          return SolveResult::Unsat;
        } else {
          next = a;
          break;
        }
      }
      if (next == kUndefLit) {
        stats_.decisions++;
        next = pick_branch_lit();
        if (next == kUndefLit) return SolveResult::Sat;  // all assigned
      }
      trail_lim_.push_back(static_cast<int>(trail_.size()));
      enqueue(next, kCRefUndef);
    }
  }
}

}  // namespace javer::sat
