// Seeded design generators for the end-to-end benchmark (javer_bench).
//
// Each workload is a list of gen::SyntheticSpec seeded from
// Rng(seed ^ hash(workload name)). Every design slot has a fixed shape
// (taken from the bench/table* families) and fixed sizes; the seed
// shuffles the order of each design's properties, which JA-verification
// follows. So a new seed gives new designs with the same mix of work, and
// the run-to-run spread across seeds stays inside the benchmark's bounds.
#ifndef JAVER_BENCH_E2E_WORKLOADS_H
#define JAVER_BENCH_E2E_WORKLOADS_H

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "gen/synthetic.h"

namespace javer::bench::e2e {

enum class Workload : std::uint8_t {
  JaFailing,     // JaVerifier, failing designs (the paper's headline case)
  JaAllTrue,     // JaVerifier, every property holds (proof path only)
  ShardedMixed,  // ShardedScheduler, hybrid dispatch, 4 threads, exchange
  WarmRerun,     // JaVerifier with a warm persist cache
};

const char* to_string(Workload w);
std::optional<Workload> parse_workload(std::string_view name);

// Worker threads the workload's verifier call may use (1 for JaVerifier).
unsigned workload_threads(Workload w);

struct DesignSpec {
  std::string name;
  gen::SyntheticSpec spec;
};

// The workload's designs for `seed`, in verification order.
std::vector<DesignSpec> workload_designs(Workload w, std::uint64_t seed);

}  // namespace javer::bench::e2e

#endif  // JAVER_BENCH_E2E_WORKLOADS_H
