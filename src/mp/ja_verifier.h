// JA-verification ("Just-Assume", Section 4): the paper's headline
// algorithm. A preset over the property scheduler: each property is
// proved locally (all other ETH properties assumed) with
// strengthening-clause re-use, one at a time (separate verification with
// local proofs is the same run). The outcome is either a proof that every
// property holds globally (Proposition 5) or a debugging set of
// properties that are the first to break (Proposition 6).
#ifndef JAVER_MP_JA_VERIFIER_H
#define JAVER_MP_JA_VERIFIER_H

#include "mp/clause_db.h"
#include "mp/report.h"
#include "mp/sched/engine_options.h"
#include "ts/transition_system.h"

namespace javer::mp {

// All knobs are the shared engine ones; lifting ignores property
// constraints by default (§7-A found this usually faster) and spurious
// CEXs trigger an automatic strict retry.
using JaOptions = sched::EngineOptions;

class JaVerifier {
 public:
  JaVerifier(const ts::TransitionSystem& ts, JaOptions opts = {});

  // Runs JA-verification over all properties. If every ETH property ends
  // HoldsLocally, all properties hold globally (Proposition 5); FailsLocally
  // verdicts form the debugging set.
  MultiResult run();
  MultiResult run(ClauseDb& db);

 private:
  const ts::TransitionSystem& ts_;
  JaOptions opts_;
};

}  // namespace javer::mp

#endif  // JAVER_MP_JA_VERIFIER_H
