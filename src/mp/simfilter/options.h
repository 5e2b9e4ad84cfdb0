// SimFilterOptions / SimFilterStats: configuration and accounting for the
// bit-parallel simulation prefilter (mp/simfilter/sim_filter.h). Split
// from the filter class so EngineOptions and MultiResult can embed these
// types without pulling the simulator machinery into every header.
#ifndef JAVER_MP_SIMFILTER_OPTIONS_H
#define JAVER_MP_SIMFILTER_OPTIONS_H

#include <cstdint>

namespace javer::mp::simfilter {

enum class SimFilterMode : std::uint8_t {
  Off,      // no simulation before SAT work
  Falsify,  // falsification sweeps + signatures, no near-miss seeding
  Full,     // Falsify + near-miss "just assume" prefix seeds into BmcSweep
};

const char* to_string(SimFilterMode m);

struct SimFilterOptions {
  SimFilterMode mode = SimFilterMode::Off;
  // Steps simulated per pattern batch and the total pattern count
  // (rounded up to a multiple of 64 — one word of patterns per round).
  int depth = 32;
  int patterns = 256;
  // base/rng seed: identical (seed, depth, patterns) runs simulate the
  // same patterns and produce the same kills/signatures/seeds. The CLI
  // default is 1 (javer_cli --seed).
  std::uint64_t seed = 1;
};

// Full mode: cap on exported near-miss prefix seeds (total, not per
// property) and the bounded BMC window explored from each seed state.
inline constexpr int kMaxSeeds = 8;
inline constexpr int kSeedWindow = 8;

struct SimFilterStats {
  std::uint64_t rounds = 0;      // 64-pattern words simulated
  std::uint64_t patterns = 0;    // rounds * 64
  std::uint64_t steps = 0;       // (round, time-frame) pairs evaluated
  std::uint64_t candidates = 0;  // (pattern, property) first-failures seen
  std::uint64_t kills = 0;       // properties closed Fails by the filter
  std::uint64_t discarded = 0;   // candidates whose replay failed the
                                 // witness-checker oracle (never a kill)
  std::uint64_t seeds_exported = 0;   // near-miss prefixes handed to BMC
  std::uint64_t seed_hits = 0;        // properties closed from seeded BMC
  std::uint64_t seed_discarded = 0;   // seeded CEXs the oracle rejected
  std::uint64_t signature_groups = 0;  // distinct signatures over targets
  std::uint64_t signature_merges = 0;  // extra cluster unions from equal
                                       // signatures (sharded runs)
  int max_kill_depth = -1;  // deepest certified kill; -1 = none
  double seconds = 0.0;     // sweep wall time (excludes seeded BMC)
};

}  // namespace javer::mp::simfilter

#endif  // JAVER_MP_SIMFILTER_OPTIONS_H
