#include "mp/report.h"

#include <iomanip>
#include <ostream>
#include <sstream>

namespace javer::mp {

const char* to_string(PropertyVerdict v) {
  switch (v) {
    case PropertyVerdict::HoldsGlobally: return "holds-globally";
    case PropertyVerdict::HoldsLocally: return "holds-locally";
    case PropertyVerdict::FailsLocally: return "fails-locally";
    case PropertyVerdict::FailsGlobally: return "fails-globally";
    default: return "unknown";
  }
}

std::size_t MultiResult::count(PropertyVerdict v) const {
  std::size_t n = 0;
  for (const PropertyResult& r : per_property) {
    if (r.verdict == v) n++;
  }
  return n;
}

std::vector<std::size_t> MultiResult::debugging_set() const {
  std::vector<std::size_t> d;
  for (std::size_t i = 0; i < per_property.size(); ++i) {
    if (per_property[i].verdict == PropertyVerdict::FailsLocally) {
      d.push_back(i);
    }
  }
  return d;
}

std::string format_duration(double seconds) {
  std::ostringstream out;
  if (seconds >= 3600.0) {
    out << std::fixed << std::setprecision(1) << seconds / 3600.0 << " h";
  } else if (seconds >= 1.0) {
    out << std::fixed << std::setprecision(1) << seconds << " s";
  } else if (seconds >= 0.01) {
    // Sub-second runs are common on the regression designs; "0.42 s"
    // reads better than the old "0.4 s" rounding.
    out << std::fixed << std::setprecision(2) << seconds << " s";
  } else {
    out << std::fixed << std::setprecision(3) << seconds << " s";
  }
  return out.str();
}

void print_report(std::ostream& out, const ts::TransitionSystem& ts,
                  const MultiResult& result) {
  for (std::size_t i = 0; i < result.per_property.size(); ++i) {
    const PropertyResult& r = result.per_property[i];
    out << "  P" << i;
    if (!ts.property_name(i).empty()) out << " (" << ts.property_name(i) << ')';
    out << ": " << to_string(r.verdict) << "  [" << format_duration(r.seconds)
        << ", " << r.frames << " frames";
    if (r.verdict == PropertyVerdict::FailsLocally ||
        r.verdict == PropertyVerdict::FailsGlobally) {
      out << ", cex length " << r.cex.length();
    }
    if (r.spurious_restarts > 0) {
      out << ", " << r.spurious_restarts << " strict-lifting restart(s)";
    }
    if (r.retries > 0) {
      out << ", " << r.retries << " retry(ies) [rung " << r.final_rung << "]";
    }
    out << "]\n";
    for (const std::string& f : r.failure_chain) {
      out << "      failure: " << f << '\n';
    }
  }
  for (std::size_t s = 0; s < result.exchange_per_shard.size(); ++s) {
    const exchange::ExchangeStats& xs = result.exchange_per_shard[s];
    out << "  exchange shard " << s << ": published " << xs.published
        << ", delivered " << xs.delivered << ", imported " << xs.imported
        << ", rejected " << xs.rejected << ", redundant " << xs.redundant
        << " [hit rate "
        << static_cast<int>(xs.hit_rate() * 100.0 + 0.5) << "%]\n";
  }
  if (result.sim_stats.patterns > 0) {
    const simfilter::SimFilterStats& ss = result.sim_stats;
    out << "  sim-prefilter: " << ss.kills << " kill(s) / " << ss.candidates
        << " candidate(s) from " << ss.patterns << " patterns x " << ss.steps
        << " steps";
    if (ss.max_kill_depth >= 0) out << " (max depth " << ss.max_kill_depth << ')';
    if (ss.seeds_exported > 0) {
      out << ", " << ss.seeds_exported << " seed(s) -> " << ss.seed_hits
          << " hit(s)";
    }
    out << ", " << ss.signature_groups << " signature group(s)";
    if (ss.signature_merges > 0) {
      out << " (" << ss.signature_merges << " cluster merge(s))";
    }
    out << " in " << format_duration(ss.seconds) << '\n';
  }
  auto dbg = result.debugging_set();
  out << "  summary: " << result.num_proved() << " proved, "
      << result.num_failed() << " failed, " << result.num_unsolved()
      << " unsolved; debugging set {";
  for (std::size_t i = 0; i < dbg.size(); ++i) {
    out << (i ? ", " : "") << 'P' << dbg[i];
  }
  out << "}; total " << format_duration(result.total_seconds) << '\n';
}

}  // namespace javer::mp
