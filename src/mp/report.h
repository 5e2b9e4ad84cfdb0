// Shared result types for multi-property verification runs, plus
// human-readable reporting (the rows the paper's tables are built from).
#ifndef JAVER_MP_REPORT_H
#define JAVER_MP_REPORT_H

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "ic3/ic3.h"
#include "mp/exchange/lemma_bus.h"
#include "mp/simfilter/options.h"
#include "obs/metrics.h"
#include "persist/persist.h"
#include "ts/trace.h"

namespace javer::mp {

// Verdict for one property, following Section 8's taxonomy.
enum class PropertyVerdict : std::uint8_t {
  HoldsGlobally,  // proved with no assumptions
  HoldsLocally,   // proved w.r.t. T_P: true, or only fails after another
                  // property has already failed (not in the debugging set)
  FailsLocally,   // in the debugging set: a CEX exists where this property
                  // is the first to fail
  FailsGlobally,  // refuted with no assumptions (joint/global separate
                  // verification); says nothing about failing *first*
  Unknown,        // resource limit
};

const char* to_string(PropertyVerdict v);

struct PropertyResult {
  PropertyVerdict verdict = PropertyVerdict::Unknown;
  double seconds = 0.0;
  int frames = 0;  // time frames unfolded by the engine
  ts::Trace cex;   // set for Fails* verdicts
  // Inductive strengthening for Holds* verdicts (cubes; the invariant is
  // the conjunction of their negations). Checkable independently with
  // ic3::certify_strengthening.
  std::vector<ts::Cube> invariant;
  int spurious_restarts = 0;  // §7-A: re-runs with strict lifting
  int slices = 0;             // scheduler budget slices this task consumed
  ic3::Ic3Stats engine_stats;
  // Resilience (src/fault + the degrade-and-retry ladder in
  // mp/sched/property_task.h): one entry per caught task failure, as
  // "<rung the failure happened on>: <reason>"; `retries` counts the
  // ladder restarts and `final_rung` is the config rung the last engine
  // ran at (0 = default config, never degraded). A verdict reached with
  // retries > 0 has passed the witness/certify oracle re-validation.
  std::vector<std::string> failure_chain;
  int retries = 0;
  int final_rung = 0;
};

struct MultiResult {
  std::vector<PropertyResult> per_property;
  double total_seconds = 0.0;
  // Warm-start cache traffic (src/persist): all-zero unless the run had
  // EngineOptions::cache_dir set and used a task-based dispatch.
  persist::PersistStats cache_stats;
  // Per-shard LemmaBus channel traffic; empty unless the run was sharded.
  std::vector<exchange::ExchangeStats> exchange_per_shard;
  // Simulation-prefilter accounting (mp/simfilter); all-zero unless the
  // run had EngineOptions::sim_filter.mode != Off.
  simfilter::SimFilterStats sim_stats;
  // Final counter/gauge state when EngineOptions::metrics was set; empty
  // (no entries) otherwise. By construction the "ic3." / "sat." / "simp."
  // totals here equal the summed per_property engine_stats.
  obs::MetricsSnapshot metrics;

  std::size_t count(PropertyVerdict v) const;
  std::size_t num_unsolved() const { return count(PropertyVerdict::Unknown); }
  std::size_t num_failed() const {
    return count(PropertyVerdict::FailsLocally) +
           count(PropertyVerdict::FailsGlobally);
  }
  std::size_t num_proved() const {
    return count(PropertyVerdict::HoldsGlobally) +
           count(PropertyVerdict::HoldsLocally);
  }
  // Indices of properties that failed locally (the paper's debugging set).
  std::vector<std::size_t> debugging_set() const;
};

// One line per property plus a summary, for the examples and benches.
void print_report(std::ostream& out, const ts::TransitionSystem& ts,
                  const MultiResult& result);

// "1,686 s" / "2.4 h" style durations as used in the paper's tables,
// with two-decimal sub-second handling ("0.42 s") below 1 s and three
// decimals below 0.01 s so short runs don't all print as "0.0 s".
std::string format_duration(double seconds);

}  // namespace javer::mp

#endif  // JAVER_MP_REPORT_H
