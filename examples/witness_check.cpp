// witness_check: validates an AIGER witness against a design, in the
// spirit of aigsim — the independent counterexample auditor that pairs
// with `javer_cli --witness`.
//
//   javer_cli --engine ja --witness design.aig > w.txt
//   witness_check design.aig w.txt
//
// Exit code 0: the witness is a genuine counterexample trace for the
// property it names; 1: it is not; 2: usage/input error.
#include <cstdio>
#include <fstream>

#include "aig/aiger_io.h"
#include "ts/trace.h"
#include "ts/witness.h"

int main(int argc, char** argv) {
  using namespace javer;
  if (argc != 3) {
    std::fprintf(stderr, "usage: witness_check design.aig witness.txt\n");
    return 2;
  }
  aig::Aig design;
  try {
    design = aig::read_aiger_file(argv[1]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "witness_check: %s\n", e.what());
    return 2;
  }
  ts::TransitionSystem ts(design);

  std::ifstream in(argv[2]);
  if (!in) {
    std::fprintf(stderr, "witness_check: cannot open %s\n", argv[2]);
    return 2;
  }

  int checked = 0;
  int valid = 0;
  // A witness file may contain several concatenated witnesses (one per
  // failed property, as javer_cli emits them).
  while (in.peek() != EOF) {
    std::size_t prop = 0;
    ts::Trace trace;
    try {
      trace = ts::read_witness(in, ts, &prop);
    } catch (const std::exception& e) {
      if (checked > 0) break;  // trailing junk after valid witnesses
      std::fprintf(stderr, "witness_check: %s\n", e.what());
      return 2;
    }
    checked++;
    ts::TraceAnalysis a = ts::analyze_trace(ts, trace);
    bool is_cex = ts::is_global_cex(ts, trace, prop);
    std::printf("witness for b%zu: %zu steps, starts-initial=%s, "
                "transitions=%s, violates-at-end=%s => %s\n",
                prop, trace.steps.size(), a.starts_initial ? "yes" : "NO",
                a.transitions_valid ? "yes" : "NO",
                (prop < a.first_failure.size() &&
                 a.first_failure[prop] ==
                     static_cast<int>(trace.steps.size()) - 1)
                    ? "yes"
                    : "NO",
                is_cex ? "VALID" : "INVALID");
    if (is_cex) valid++;
    // Skip blank separator lines between concatenated witnesses.
    while (in.peek() == '\n') in.get();
  }
  if (checked == 0) {
    std::fprintf(stderr, "witness_check: no witnesses found\n");
    return 2;
  }
  std::printf("%d/%d witnesses valid\n", valid, checked);
  return valid == checked ? 0 : 1;
}
