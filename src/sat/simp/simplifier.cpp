#include "sat/simp/simplifier.h"

#include <algorithm>
#include <cassert>

namespace javer::sat::simp {

Simplifier::Simplifier(SimplifyConfig cfg) : cfg_(cfg) {}

void Simplifier::freeze(Var v) {
  assert(v >= 0);
  if (static_cast<std::size_t>(v) >= frozen_.size()) {
    frozen_.resize(v + 1, 0);
  }
  frozen_[v] = 1;
}

std::uint64_t Simplifier::signature(const std::vector<Lit>& lits) {
  std::uint64_t sig = 0;
  for (Lit l : lits) sig |= std::uint64_t{1} << (l.var() & 63);
  return sig;
}

namespace {

// Sorts and deduplicates; returns false for tautologies.
bool normalize(std::vector<Lit>& lits) {
  std::sort(lits.begin(), lits.end());
  std::size_t out = 0;
  for (std::size_t i = 0; i < lits.size(); ++i) {
    if (out > 0 && lits[i] == lits[out - 1]) continue;      // duplicate
    if (out > 0 && lits[i] == ~lits[out - 1]) return false;  // tautology
    lits[out++] = lits[i];
  }
  lits.resize(out);
  return true;
}

bool clause_contains(const std::vector<Lit>& sorted_lits, Lit l) {
  return std::binary_search(sorted_lits.begin(), sorted_lits.end(), l);
}

}  // namespace

bool Simplifier::enqueue_unit(Lit l) {
  Value v = value(l);
  if (v == kFalse) return false;  // contradicting units: UNSAT
  if (v == kTrue) return true;
  val_[l.var()] = l.sign() ? kFalse : kTrue;
  unit_queue_.push_back(l);
  stats_.vars_fixed++;
  return true;
}

std::size_t Simplifier::install_clause(std::vector<Lit> lits) {
  assert(lits.size() >= 2);
  std::size_t ci = clauses_.size();
  SClause c;
  c.sig = signature(lits);
  c.lits = std::move(lits);
  for (Lit l : c.lits) {
    occ_.add(l, ci);
    touched_[l.var()] = 1;
  }
  clauses_.push_back(std::move(c));
  in_subsumption_queue_.push_back(1);
  subsumption_queue_.push_back(ci);
  return ci;
}

bool Simplifier::add_input_clause(const std::vector<Lit>& lits) {
  std::vector<Lit> ps = lits;
  if (!normalize(ps)) return true;  // tautology: drop
  // Apply already-known top-level values.
  std::size_t out = 0;
  for (Lit l : ps) {
    Value v = value(l);
    if (v == kTrue) return true;  // satisfied
    if (v == kFalse) continue;
    ps[out++] = l;
  }
  ps.resize(out);
  if (ps.empty()) return false;
  if (ps.size() == 1) return enqueue_unit(ps[0]);
  install_clause(std::move(ps));
  return true;
}

void Simplifier::delete_clause(std::size_t ci) {
  SClause& c = clauses_[ci];
  assert(!c.deleted);
  c.deleted = true;
  for (Lit l : c.lits) touched_[l.var()] = 1;
}

void Simplifier::strengthen_clause(std::size_t ci, Lit l) {
  SClause& c = clauses_[ci];
  assert(!c.deleted);
  auto it = std::find(c.lits.begin(), c.lits.end(), l);
  assert(it != c.lits.end());
  c.lits.erase(it);
  c.sig = signature(c.lits);
  touched_[l.var()] = 1;
  for (Lit q : c.lits) touched_[q.var()] = 1;
  assert(!c.lits.empty());
  if (c.lits.size() == 1) {
    Lit unit = c.lits[0];
    delete_clause(ci);
    // A contradiction here surfaces on the next propagate_units() pass via
    // the queued unit's stored value; enqueue_unit reports it.
    if (!enqueue_unit(unit)) contradiction_ = true;
    return;
  }
  if (!in_subsumption_queue_[ci]) {
    in_subsumption_queue_[ci] = 1;
    subsumption_queue_.push_back(ci);
  }
}

bool Simplifier::propagate_units() {
  while (unit_head_ < unit_queue_.size()) {
    Lit l = unit_queue_[unit_head_++];
    // Clauses containing l are satisfied.
    for (std::size_t ci : occ_[l]) {
      if (ci >= clauses_.size() || clauses_[ci].deleted) continue;
      if (!clause_contains(clauses_[ci].lits, l)) continue;
      delete_clause(ci);
    }
    occ_.clear_lit(l);
    // Clauses containing ~l lose that literal.
    std::vector<std::size_t> negs = occ_[~l];
    occ_.clear_lit(~l);
    for (std::size_t ci : negs) {
      if (ci >= clauses_.size() || clauses_[ci].deleted) continue;
      if (!clause_contains(clauses_[ci].lits, ~l)) continue;
      strengthen_clause(ci, ~l);
      if (contradiction_) return false;
    }
  }
  return !contradiction_;
}

int Simplifier::subsumes(const SClause& c, const SClause& d,
                         Lit& flipped) const {
  if (c.size() > d.size()) return 0;
  if ((c.sig & ~d.sig) != 0) return 0;
  int flips = 0;
  std::size_t j = 0;
  for (Lit lc : c.lits) {
    while (j < d.size() && d.lits[j].var() < lc.var()) j++;
    if (j >= d.size()) return 0;
    if (d.lits[j] == lc) {
      j++;
      continue;
    }
    if (d.lits[j].var() == lc.var()) {  // opposite polarity in d
      if (++flips > 1) return 0;
      flipped = lc;
      j++;
      continue;
    }
    return 0;
  }
  return flips == 0 ? 1 : 2;
}

bool Simplifier::subsumption_pass() {
  std::size_t head = 0;
  while (head < subsumption_queue_.size()) {
    std::size_t ci = subsumption_queue_[head++];
    in_subsumption_queue_[ci] = 0;
    if (clauses_[ci].deleted) continue;

    // Scan the occurrence list of the least-occurring literal of C; every
    // clause C subsumes (or strengthens, with one polarity flip) must
    // contain that literal — or its negation, when the flip happens to be
    // on the pivot itself.
    Lit best = clauses_[ci].lits[0];
    std::size_t best_count = SIZE_MAX;
    for (Lit l : clauses_[ci].lits) {
      std::size_t n = occ_[l].size();
      if (n < best_count) {
        best_count = n;
        best = l;
      }
    }
    for (Lit pivot : {best, ~best}) {
      std::vector<std::size_t> cand = occ_[pivot];
      for (std::size_t di : cand) {
        if (di == ci || di >= clauses_.size() || clauses_[di].deleted) {
          continue;
        }
        if (clauses_[ci].deleted) break;  // C itself got strengthened away
        if (!clause_contains(clauses_[di].lits, pivot)) continue;
        Lit flipped = kUndefLit;
        int r = subsumes(clauses_[ci], clauses_[di], flipped);
        if (r == 1) {
          delete_clause(di);
          stats_.clauses_subsumed++;
        } else if (r == 2) {
          // Self-subsuming resolution: resolving C and D on `flipped`
          // yields D \ {~flipped}, which subsumes D.
          strengthen_clause(di, ~flipped);
          stats_.clauses_strengthened++;
          if (contradiction_) return false;
        }
      }
    }
  }
  subsumption_queue_.clear();
  return true;
}

bool Simplifier::resolve(const std::vector<Lit>& a, const std::vector<Lit>& b,
                         Var v, std::vector<Lit>& out) const {
  out.clear();
  std::size_t i = 0;
  std::size_t j = 0;
  auto push = [&](Lit l) -> bool {
    if (!out.empty()) {
      if (out.back() == l) return true;       // duplicate
      if (out.back() == ~l) return false;     // tautology
    }
    out.push_back(l);
    return true;
  };
  while (i < a.size() || j < b.size()) {
    Lit l;
    if (j >= b.size() || (i < a.size() && a[i] < b[j])) {
      l = a[i++];
    } else {
      l = b[j++];
    }
    if (l.var() == v) continue;
    if (!push(l)) return false;
  }
  return true;
}

bool Simplifier::try_eliminate(Var v) {
  Lit pos = Lit::make(v);
  Lit neg = ~pos;
  auto gather = [this](Lit l, std::vector<std::size_t>& out) {
    out.clear();
    auto& list = occ_[l];
    std::size_t keep = 0;
    for (std::size_t ci : list) {
      if (ci >= clauses_.size() || clauses_[ci].deleted) continue;
      if (!clause_contains(clauses_[ci].lits, l)) continue;
      list[keep++] = ci;
      out.push_back(ci);
    }
    list.resize(keep);
  };
  std::vector<std::size_t> pos_occ, neg_occ;
  gather(pos, pos_occ);
  gather(neg, neg_occ);
  if (pos_occ.empty() && neg_occ.empty()) return false;
  if (pos_occ.size() > cfg_.max_occurrences ||
      neg_occ.size() > cfg_.max_occurrences) {
    return false;
  }

  // Count resolvents; abort on growth past the cutoff or fat resolvents.
  std::size_t before = pos_occ.size() + neg_occ.size();
  std::size_t limit = before + static_cast<std::size_t>(
                                   std::max(0, cfg_.growth_limit));
  std::vector<std::vector<Lit>> resolvents;
  std::vector<Lit> res;
  for (std::size_t pi : pos_occ) {
    for (std::size_t ni : neg_occ) {
      if (!resolve(clauses_[pi].lits, clauses_[ni].lits, v, res)) {
        continue;  // tautology
      }
      if (res.size() > cfg_.max_resolvent_size) return false;
      resolvents.push_back(res);
      if (resolvents.size() > limit) return false;
    }
  }

  // Commit: record the variable's clauses for model reconstruction, drop
  // them, install the resolvents.
  ElimEntry entry;
  entry.var = v;
  for (std::size_t ci : pos_occ) {
    entry.clauses.push_back(clauses_[ci].lits);
    delete_clause(ci);
  }
  for (std::size_t ci : neg_occ) {
    entry.clauses.push_back(clauses_[ci].lits);
    delete_clause(ci);
  }
  elim_stack_.push_back(std::move(entry));
  elim_order_.push_back(v);
  eliminated_[v] = 1;
  stats_.vars_eliminated++;
  occ_.clear_lit(pos);
  occ_.clear_lit(neg);

  for (auto& r : resolvents) {
    if (r.size() == 1) {
      if (!enqueue_unit(r[0])) return contradiction_ = true, false;
    } else {
      install_clause(std::move(r));
    }
  }
  return true;
}

bool Simplifier::eliminate_vars(bool& changed) {
  // Candidates: touched variables, cheapest (fewest occurrences) first so
  // easy eliminations shrink the formula before the expensive ones run.
  std::vector<Var> cands;
  for (Var v = 0; v < num_vars_; ++v) {
    if (touched_[v] && eliminable(v)) cands.push_back(v);
    touched_[v] = 0;
  }
  std::sort(cands.begin(), cands.end(), [this](Var a, Var b) {
    auto cost = [this](Var v) {
      Lit p = Lit::make(v);
      return occ_[p].size() + occ_[~p].size();
    };
    return cost(a) < cost(b);
  });
  for (Var v : cands) {
    if (!eliminable(v)) continue;  // may have been fixed meanwhile
    if (try_eliminate(v)) changed = true;
    if (contradiction_) return false;
    // Eliminations can queue units; fold them in before the next candidate
    // so occurrence counts stay honest.
    if (unit_head_ < unit_queue_.size() && !propagate_units()) return false;
  }
  return true;
}

bool Simplifier::simplify(Cnf& cnf) {
  num_vars_ = cnf.num_vars;
  if (static_cast<std::size_t>(num_vars_) > frozen_.size()) {
    frozen_.resize(num_vars_, 0);
  }
  eliminated_.assign(num_vars_, 0);
  val_.assign(num_vars_, kUndef);
  touched_.assign(num_vars_, 1);
  occ_.init(num_vars_);
  clauses_.clear();
  unit_queue_.clear();
  unit_head_ = 0;
  subsumption_queue_.clear();
  in_subsumption_queue_.clear();
  elim_stack_.clear();
  elim_order_.clear();
  contradiction_ = false;
  stats_ = SimpStats{};

  stats_.clauses_in = cnf.clauses.size();
  stats_.lits_in = cnf.num_literals();

  bool ok = true;
  for (const auto& clause : cnf.clauses) {
    if (!add_input_clause(clause)) {
      ok = false;
      break;
    }
  }

  for (int round = 0; ok && round < cfg_.max_rounds; ++round) {
    stats_.rounds = round + 1;
    if (!propagate_units()) {
      ok = false;
      break;
    }
    if (!subsumption_pass()) {
      ok = false;
      break;
    }
    if (unit_head_ < unit_queue_.size()) continue;  // propagate first
    bool changed = false;
    if (!eliminate_vars(changed)) {
      ok = false;
      break;
    }
    if (!changed && unit_head_ == unit_queue_.size() &&
        subsumption_queue_.empty()) {
      break;
    }
  }
  // The round cap can cut the loop off with units still queued; the
  // write-back below requires every fixed variable to be occurrence-free,
  // so fold the stragglers in (cheap, and never re-enters elimination).
  if (ok && unit_head_ < unit_queue_.size()) ok = propagate_units();

  if (!ok) {
    cnf.clauses.assign(1, {});  // the empty clause: UNSAT
    return false;
  }

  // Write back: live clauses, plus units for frozen fixed variables.
  // Unfrozen fixed variables leave the formula entirely and are replayed
  // by extend_model like eliminated ones.
  cnf.clauses.clear();
  for (SClause& c : clauses_) {
    if (c.deleted) continue;
    stats_.lits_out += c.lits.size();
    cnf.clauses.push_back(std::move(c.lits));
  }
  for (Var v = 0; v < num_vars_; ++v) {
    if (val_[v] == kUndef) continue;
    Lit unit = Lit::make(v, val_[v] == kFalse);
    if (frozen_[v]) {
      // Frozen variables may occur outside this formula; their forced
      // values must stay visible.
      cnf.clauses.push_back({unit});
      stats_.lits_out += 1;
    } else {
      eliminated_[v] = 1;
      elim_order_.push_back(v);
      elim_stack_.push_back({v, {{unit}}});
    }
  }
  stats_.clauses_out = cnf.clauses.size();
  return true;
}

void Simplifier::extend_model(std::vector<Value>& model) const {
  if (model.size() < static_cast<std::size_t>(num_vars_)) {
    model.resize(num_vars_, kUndef);
  }
  for (auto it = elim_stack_.rbegin(); it != elim_stack_.rend(); ++it) {
    Var v = it->var;
    Value forced = kUndef;
    for (const auto& clause : it->clauses) {
      bool satisfied = false;
      Lit vlit = kUndefLit;
      for (Lit l : clause) {
        if (l.var() == v) {
          vlit = l;
          continue;
        }
        // Variables the output formula dropped without eliminating
        // (unconstrained) default to false; the evaluation must be total
        // and use the same default everywhere or the clause-by-clause
        // forcing below loses its consistency guarantee.
        Value lv = model[l.var()] == kUndef ? kFalse : model[l.var()];
        if ((lv == kTrue) != l.sign()) {
          satisfied = true;
          break;
        }
      }
      if (satisfied) continue;
      // Every literal but v's is false: v must satisfy this clause. BVE
      // guarantees all such clauses agree, because the model satisfies
      // every resolvent.
      assert(vlit != kUndefLit);
      forced = vlit.sign() ? kFalse : kTrue;
      break;
    }
    model[v] = (forced == kUndef) ? kFalse : forced;
  }
}

}  // namespace javer::sat::simp
