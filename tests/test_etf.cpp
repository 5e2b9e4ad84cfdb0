// Expected-To-Fail handling (paper Section 5): ETF properties are never
// assumed, so their failures do not mask other properties, and a CEX for
// an ETF property must not break any ETH property first.
#include <gtest/gtest.h>

#include "aig/builder.h"
#include "mp/ja_verifier.h"
#include "ref/explicit_checker.h"
#include "ts/trace.h"

namespace javer::mp {
namespace {

// Design: counter with
//   P0 (ETF): "cnt != 2"  — a cover-style property, fails at depth 2;
//   P1 (ETH): "cnt != 4"  — fails at depth 4.
// Without ETF handling, P0's deterministic failure at depth 2 would mask
// P1; with it, P1 must still be found failing (it enters the debugging
// set among ETH properties).
struct EtfFixture {
  EtfFixture() {
    aig::Builder b(aig);
    aig::Word cnt = b.latch_word(3);
    b.set_next(cnt, b.inc_word(cnt, aig::Lit::true_lit()));
    aig.add_property(~b.eq_const(cnt, 2), "cover_2", /*etf=*/true);
    aig.add_property(~b.eq_const(cnt, 4), "safety_4", /*etf=*/false);
    ts = std::make_unique<ts::TransitionSystem>(aig);
  }
  aig::Aig aig;
  std::unique_ptr<ts::TransitionSystem> ts;
};

TEST(Etf, EtfFailureDoesNotMaskEthProperty) {
  EtfFixture fx;
  MultiResult result = JaVerifier(*fx.ts).run();

  // The ETF property gets its counterexample.
  EXPECT_EQ(result.per_property[0].verdict, PropertyVerdict::FailsLocally);
  EXPECT_EQ(result.per_property[0].cex.length(), 2u);
  // The ETH property is NOT masked by the earlier ETF failure.
  EXPECT_EQ(result.per_property[1].verdict, PropertyVerdict::FailsLocally);
  EXPECT_EQ(result.per_property[1].cex.length(), 4u);
  // Its CEX does not break the ETH assumption set (which is empty besides
  // itself) — and in particular analysis confirms the trace shape.
  ts::TraceAnalysis a = ts::analyze_trace(*fx.ts, result.per_property[1].cex);
  EXPECT_EQ(a.first_failure[1], 4);
}

TEST(Etf, EthCexMustNotBreakEthPropertiesButMayBreakEtf) {
  EtfFixture fx;
  MultiResult result = JaVerifier(*fx.ts).run();
  // P1's CEX passes through cnt==2 (the ETF failure point) — allowed.
  ts::TraceAnalysis a = ts::analyze_trace(*fx.ts, result.per_property[1].cex);
  EXPECT_EQ(a.first_failure[0], 2)
      << "the ETF property fails mid-trace, which Section 5 permits";
}

TEST(Etf, WithoutEtfMarkTheSamePropertyIsMasked) {
  // Control experiment: same design with both properties ETH — now the
  // deterministic depth-2 failure masks the depth-4 one.
  aig::Aig aig;
  aig::Builder b(aig);
  aig::Word cnt = b.latch_word(3);
  b.set_next(cnt, b.inc_word(cnt, aig::Lit::true_lit()));
  aig.add_property(~b.eq_const(cnt, 2), "p0");
  aig.add_property(~b.eq_const(cnt, 4), "p1");
  ts::TransitionSystem ts(aig);

  MultiResult result = JaVerifier(ts).run();
  EXPECT_EQ(result.per_property[0].verdict, PropertyVerdict::FailsLocally);
  EXPECT_EQ(result.per_property[1].verdict, PropertyVerdict::HoldsLocally)
      << "without the ETF mark, p0 masks p1";
}

TEST(Etf, ReferenceCheckerAgrees) {
  EtfFixture fx;
  // The oracle with ETH-only assumptions: both properties fail locally.
  ref::ExplicitResult r = ref::explicit_check(*fx.ts);
  EXPECT_EQ(r.local_fail_depth[0], 2);
  EXPECT_EQ(r.local_fail_depth[1], 4);
}

TEST(Etf, EtfPropertyCanStillHoldLocally) {
  // An ETF property that cannot fail without breaking an ETH property
  // first: its local check comes back Holds — valuable information (the
  // cover target is unreachable without violating assumptions).
  aig::Aig aig;
  aig::Builder b(aig);
  aig::Word cnt = b.latch_word(3);
  b.set_next(cnt, b.inc_word(cnt, aig::Lit::true_lit()));
  aig.add_property(~b.eq_const(cnt, 2), "eth_2", /*etf=*/false);
  aig.add_property(~b.eq_const(cnt, 4), "etf_4", /*etf=*/true);
  ts::TransitionSystem ts(aig);
  MultiResult result = JaVerifier(ts).run();
  EXPECT_EQ(result.per_property[0].verdict, PropertyVerdict::FailsLocally);
  EXPECT_EQ(result.per_property[1].verdict, PropertyVerdict::HoldsLocally)
      << "every path to cnt==4 passes cnt==2, which ETH forbids";
}

}  // namespace
}  // namespace javer::mp
