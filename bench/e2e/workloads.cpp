#include "workloads.h"

#include <algorithm>
#include <cmath>

#include "base/rng.h"

namespace javer::bench::e2e {

namespace {

struct Info {
  Workload workload;
  const char* name;
};

constexpr Info kWorkloads[] = {
    {Workload::JaFailing, "ja-failing"},
    {Workload::JaAllTrue, "ja-alltrue"},
    {Workload::ShardedMixed, "sharded-mixed"},
    {Workload::WarmRerun, "warm-rerun"},
};

// Designs per workload: the 75th percentile of per-design latency then
// has ten designs beyond it.
constexpr std::size_t kDesigns = 40;

// FNV-1a, so the per-workload stream does not depend on std::hash.
std::uint64_t hash_name(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

// Slot i of n scales its shape's filler by a factor ramping linearly from
// `lo` to `hi`, so the per-design latencies form a smooth spread instead
// of a few clusters (percentiles of a clustered sample jump between
// clusters from seed to seed).
double ramp(std::size_t i, std::size_t n, double lo, double hi) {
  return lo + (hi - lo) * static_cast<double>(i) / static_cast<double>(n - 1);
}

// A filler count of the shape scaled by the slot's ramp factor. Sizes do
// not depend on the seed: a +-5% size jitter moved single-design latency
// by ~13% and peak RSS by ~7% from seed to seed.
std::size_t scaled(std::size_t base, double scale) {
  if (base == 0) return 0;
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::lround(static_cast<double>(base) * scale)));
}

std::string slot_name(char prefix, std::size_t i) {
  return std::string(1, prefix) + (i < 10 ? "0" : "") + std::to_string(i);
}

// Table III shapes (bench/bench_util.cpp failing_family): one
// deterministic shallow failure, gated shallow failures, masked deep
// failures and true filler.
std::vector<DesignSpec> failing_designs(Rng& rng) {
  struct Shape {
    std::size_t wrap, gated, masked, rings, ring_size, pairs, unreach;
  };
  constexpr Shape kShapes[] = {
      {13, 1, 1, 2, 6, 4, 6},  {12, 2, 1, 1, 8, 2, 8},
      {13, 1, 3, 2, 5, 6, 6},  {14, 1, 1, 1, 4, 0, 2},
      {12, 1, 2, 2, 6, 6, 10}, {12, 1, 1, 1, 6, 2, 2},
      {13, 4, 2, 2, 8, 8, 10}, {14, 2, 3, 3, 6, 10, 14},
  };
  std::vector<DesignSpec> out;
  for (std::size_t i = 0; i < kDesigns; ++i) {
    const Shape& s = kShapes[i % std::size(kShapes)];
    const double scale = ramp(i, kDesigns, 0.5, 2.5);
    gen::SyntheticSpec spec;
    spec.seed = rng.next();
    spec.wrap_counter_bits = s.wrap;
    spec.sat_counter_bits = 7;
    spec.rings = s.rings;
    spec.ring_size = s.ring_size;
    spec.ring_props = s.rings * s.ring_size;
    spec.pair_props = scaled(s.pairs, scale);
    spec.unreachable_props = scaled(s.unreach, scale);
    spec.det_fail_props = 1;
    spec.input_fail_props = s.gated;
    spec.masked_fail_props = s.masked;
    out.push_back({slot_name('f', i), spec});
  }
  return out;
}

// Table IV shapes (bench/bench_util.cpp all_true_family): strided rings,
// stride-2 unreachable saturating-counter values, and shift-register
// chains.
std::vector<DesignSpec> all_true_designs(Rng& rng, double lo, double hi,
                                         char prefix) {
  struct Shape {
    std::size_t sat_bits, rings, ring_size, ring_stride, pairs, unreach,
        chain, chain_depth;
  };
  constexpr Shape kShapes[] = {
      {8, 3, 12, 4, 8, 12, 12, 16}, {7, 2, 6, 1, 12, 8, 0, 0},
      {9, 2, 16, 4, 4, 10, 16, 24}, {8, 1, 5, 1, 0, 0, 0, 0},
      {7, 2, 8, 1, 6, 6, 8, 12},    {9, 3, 12, 3, 10, 16, 16, 20},
      {7, 1, 12, 1, 4, 4, 0, 0},    {8, 4, 12, 4, 14, 20, 20, 24},
  };
  std::vector<DesignSpec> out;
  for (std::size_t i = 0; i < kDesigns; ++i) {
    const Shape& s = kShapes[i % std::size(kShapes)];
    const double scale = ramp(i, kDesigns, lo, hi);
    gen::SyntheticSpec spec;
    spec.seed = rng.next();
    spec.wrap_counter_bits = 8;
    spec.sat_counter_bits = s.sat_bits;
    spec.rings = s.rings;
    spec.ring_size = s.ring_size;
    spec.ring_props = s.rings * (s.ring_size / s.ring_stride);
    spec.ring_prop_stride = s.ring_stride;
    spec.pair_props = scaled(s.pairs, scale);
    spec.unreachable_props = scaled(s.unreach, scale);
    spec.unreachable_stride = 2;
    spec.chain_props = scaled(s.chain, scale);
    spec.chain_depth = s.chain_depth;
    out.push_back({slot_name(prefix, i), spec});
  }
  return out;
}

// Table XI shapes (bench/table11_clustered.cpp multi_cone_family):
// several independent rings plus filler and a shallow debugging set, so
// clustering finds real partitions and the BMC sweeps have failures to
// find.
std::vector<DesignSpec> multi_cone_designs(Rng& rng) {
  struct Shape {
    std::size_t rings, ring_size, pairs, unreach, gated, masked;
  };
  constexpr Shape kShapes[] = {
      {3, 5, 4, 4, 1, 1},
      {4, 6, 2, 6, 2, 1},
      {2, 8, 6, 2, 1, 2},
      {5, 4, 3, 5, 2, 1},
  };
  std::vector<DesignSpec> out;
  for (std::size_t i = 0; i < kDesigns; ++i) {
    const Shape& s = kShapes[i % std::size(kShapes)];
    const double scale = ramp(i, kDesigns, 1.5, 4.5);
    gen::SyntheticSpec spec;
    spec.seed = rng.next();
    spec.wrap_counter_bits = 11;
    spec.sat_counter_bits = 7;
    spec.rings = s.rings;
    spec.ring_size = s.ring_size;
    spec.ring_props = s.rings * s.ring_size;
    spec.pair_props = scaled(s.pairs, scale);
    spec.unreachable_props = scaled(s.unreach, scale);
    spec.det_fail_props = 1;
    spec.input_fail_props = s.gated;
    spec.masked_fail_props = s.masked;
    out.push_back({slot_name('m', i), spec});
  }
  return out;
}

}  // namespace

const char* to_string(Workload w) {
  for (const Info& info : kWorkloads) {
    if (info.workload == w) return info.name;
  }
  return "?";
}

std::optional<Workload> parse_workload(std::string_view name) {
  for (const Info& info : kWorkloads) {
    if (name == info.name) return info.workload;
  }
  return std::nullopt;
}

unsigned workload_threads(Workload w) {
  return w == Workload::ShardedMixed ? 4 : 1;
}

std::vector<DesignSpec> workload_designs(Workload w, std::uint64_t seed) {
  Rng rng(seed ^ hash_name(to_string(w)));
  switch (w) {
    case Workload::JaFailing:
      return failing_designs(rng);
    case Workload::JaAllTrue:
      return all_true_designs(rng, 0.5, 1.2, 't');
    case Workload::ShardedMixed:
      return multi_cone_designs(rng);
    case Workload::WarmRerun:
      return all_true_designs(rng, 0.4, 1.0, 'w');
  }
  return {};
}

}  // namespace javer::bench::e2e
