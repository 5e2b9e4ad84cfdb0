// Expected-To-Fail properties (paper Section 5). Cover-style properties
// are *supposed* to fail — their counterexamples are reachability
// witnesses. Marking them ETF keeps them out of the assumption set, so:
//   * their failures do not mask genuine safety bugs, and
//   * the witness produced for an ETF property never breaks an ETH
//     property first.
//
//   $ ./example_etf_demo
#include <cstdio>
#include <iostream>

#include "aig/builder.h"
#include "mp/ja_verifier.h"
#include "mp/report.h"
#include "ts/trace.h"

int main() {
  using namespace javer;

  // A 4-bit counter modelling a tiny protocol engine:
  //  - cover_busy (ETF): "the engine never gets busy" — expected to fail;
  //    its CEX witnesses that the busy state (cnt==3) is reachable.
  //  - no_overflow (ETH): a real safety property, broken at cnt==6.
  aig::Aig design;
  aig::Builder b(design);
  aig::Word cnt = b.latch_word(4, Ternary::False, "cnt");
  b.set_next(cnt, b.inc_word(cnt, aig::Lit::true_lit()));
  design.add_property(~b.eq_const(cnt, 3), "cover_busy",
                      /*expected_to_fail=*/true);
  design.add_property(~b.eq_const(cnt, 6), "no_overflow",
                      /*expected_to_fail=*/false);
  ts::TransitionSystem ts(design);

  mp::MultiResult result = mp::JaVerifier(ts).run();
  mp::print_report(std::cout, ts, result);

  const auto& cover = result.per_property[0];
  const auto& safety = result.per_property[1];
  std::printf("\ncover_busy witness: length %zu (reaches the busy state)\n",
              cover.cex.length());
  std::printf("no_overflow bug: CEX length %zu — found even though the ETF\n"
              "property fails earlier on the same path; an ETH property in\n"
              "its place would have masked it (Section 5).\n",
              safety.cex.length());

  // Verify the Section 5 guarantee mechanically: the safety CEX is a
  // valid local CEX w.r.t. the ETH-only assumption set.
  bool ok = ts::is_local_cex(ts, safety.cex, 1, {});
  std::printf("safety CEX valid: %s\n", ok ? "yes" : "NO");
  return ok ? 0 : 1;
}
