// Warm-start persistence tests (src/persist): binary round-trips for CNF
// templates and shard ClauseDb snapshots, the cold-vs-warm equivalence
// contract (identical verdicts, every proof certified, warm runs build
// zero templates), and graceful rejection of truncated, version-bumped
// and bit-flipped cache files — a damaged cache costs warmth, never a
// verdict.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "cnf/template.h"
#include "gen/random_design.h"
#include "gen/synthetic.h"
#include "mp/sched/property_task.h"
#include "mp/sched/scheduler.h"
#include "mp/shard/sharded_scheduler.h"
#include "persist/persist.h"
#include "test_util.h"

namespace javer {
namespace {

namespace fs = std::filesystem;

std::string fresh_dir(const std::string& name) {
  fs::path dir = fs::path(::testing::TempDir()) / ("javer_persist_" + name);
  fs::remove_all(dir);
  return dir.string();
}

aig::Aig small_design(std::uint64_t seed, std::size_t props = 3) {
  gen::RandomDesignSpec spec;
  spec.seed = seed;
  spec.num_latches = 4;
  spec.num_inputs = 2;
  spec.num_ands = 18;
  spec.num_properties = props;
  return gen::make_random_design(spec);
}

unsigned long long template_builds(const mp::MultiResult& r) {
  unsigned long long builds = 0;
  for (const mp::PropertyResult& pr : r.per_property) {
    builds += pr.engine_stats.template_builds;
  }
  return builds;
}

void expect_same_verdicts(const ts::TransitionSystem& ts,
                          const mp::MultiResult& a, const mp::MultiResult& b,
                          const std::string& tag) {
  ASSERT_EQ(a.per_property.size(), b.per_property.size()) << tag;
  for (std::size_t p = 0; p < ts.num_properties(); ++p) {
    EXPECT_EQ(a.per_property[p].verdict, b.per_property[p].verdict)
        << tag << " P" << p;
  }
}

void expect_proofs_certify(const ts::TransitionSystem& ts,
                           const mp::MultiResult& r) {
  for (std::size_t p = 0; p < ts.num_properties(); ++p) {
    const mp::PropertyResult& pr = r.per_property[p];
    if (pr.verdict == mp::PropertyVerdict::HoldsLocally) {
      testutil::expect_valid_invariant(
          ts, p, mp::sched::local_assumptions(ts, p), pr.invariant);
    } else if (pr.verdict == mp::PropertyVerdict::HoldsGlobally) {
      testutil::expect_valid_invariant(ts, p, {}, pr.invariant);
    }
  }
}

// --- binary round-trips ------------------------------------------------------

TEST(PersistCache, TemplateRoundTripPreservesEverything) {
  for (bool simplify : {false, true}) {
    aig::Aig aig = small_design(11);
    ts::TransitionSystem ts(aig);
    cnf::CnfTemplate::Spec spec;
    spec.props = {0, 2};
    spec.simplify = simplify;
    cnf::CnfTemplate built(ts, spec);

    const std::string dir = fresh_dir(simplify ? "tmpl_simp" : "tmpl");
    persist::PersistCache cache(dir);
    const std::uint64_t fp = aig::fingerprint(aig);
    cache.store_template(fp, built);
    EXPECT_EQ(cache.stats().templates_stored, 1u);

    auto loaded = cache.load_template(ts, fp, spec);
    ASSERT_NE(loaded, nullptr);
    EXPECT_EQ(cache.stats().templates_loaded, 1u);
    EXPECT_EQ(cache.stats().load_errors, 0u);
    EXPECT_EQ(loaded->num_vars(), built.num_vars());
    EXPECT_EQ(loaded->clauses(), built.clauses());
    EXPECT_EQ(loaded->true_lit(), built.true_lit());
    EXPECT_EQ(loaded->latch_lits(), built.latch_lits());
    EXPECT_EQ(loaded->input_lits(), built.input_lits());
    EXPECT_EQ(loaded->next_lits(), built.next_lits());
    EXPECT_EQ(loaded->constraint_lits(), built.constraint_lits());
    EXPECT_EQ(loaded->eliminated_vars(), built.eliminated_vars());
    EXPECT_EQ(loaded->property_lit(0), built.property_lit(0));
    EXPECT_EQ(loaded->property_lit(2), built.property_lit(2));
    EXPECT_EQ(loaded->spec().props, built.spec().props);
    EXPECT_EQ(loaded->spec().simplify, simplify);
    // A restored template cost nothing to build.
    EXPECT_EQ(loaded->encode_seconds(), 0.0);
  }
}

TEST(PersistCache, ClauseDbRoundTrip) {
  aig::Aig aig = small_design(12);
  ts::TransitionSystem ts(aig);
  const std::string dir = fresh_dir("cdb");
  persist::PersistCache cache(dir);
  const std::uint64_t fp = aig::fingerprint(aig);
  const std::uint64_t sig = persist::index_set_signature({0, 1, 2});

  std::vector<ts::Cube> cubes{
      {ts::StateLit{0, true}},
      {ts::StateLit{1, false}, ts::StateLit{3, true}},
  };
  cache.store_clause_db(fp, sig, cubes);
  EXPECT_EQ(cache.stats().dbs_stored, 1u);

  auto loaded = cache.load_clause_db(ts, fp, sig);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, cubes);
  EXPECT_EQ(cache.stats().dbs_loaded, 1u);
  EXPECT_EQ(cache.stats().cubes_loaded, 2u);

  // A different signature (different clustering) misses cleanly.
  EXPECT_FALSE(
      cache.load_clause_db(ts, fp, persist::index_set_signature({0, 1}))
          .has_value());
  EXPECT_EQ(cache.stats().load_errors, 0u);
}

TEST(PersistCache, SuccessfulLoadStampsEntryAsRecentlyUsed) {
  // read_entry touches the entry's mtime on every served load so a future
  // eviction pass can age out entries by recency. The stamp must not
  // disturb the payload: the entry round-trips identically afterwards.
  aig::Aig aig = small_design(16);
  ts::TransitionSystem ts(aig);
  const std::string dir = fresh_dir("stamp");
  persist::PersistCache cache(dir);
  const std::uint64_t fp = aig::fingerprint(aig);
  const std::uint64_t sig = persist::index_set_signature({0, 1, 2});
  std::vector<ts::Cube> cubes{{ts::StateLit{0, true}},
                              {ts::StateLit{1, false}}};
  cache.store_clause_db(fp, sig, cubes);

  const fs::path entry =
      fs::path(dir) / persist::PersistCache::clause_db_file_name(fp, sig);
  ASSERT_TRUE(fs::exists(entry));
  const auto ancient =
      fs::file_time_type::clock::now() - std::chrono::hours(48);
  fs::last_write_time(entry, ancient);
  const auto before = fs::last_write_time(entry);

  auto loaded = cache.load_clause_db(ts, fp, sig);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, cubes);
  EXPECT_GT(fs::last_write_time(entry), before);

  // The stamped entry is still byte-for-byte servable (checksum intact).
  auto again = cache.load_clause_db(ts, fp, sig);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(*again, cubes);
  EXPECT_EQ(cache.stats().load_errors, 0u);
}

TEST(PersistCache, CubesOutsideTheDesignAreRejected) {
  // An entry written for a bigger design must not leak out-of-range latch
  // indices into a smaller one, even with a valid checksum.
  aig::Aig big = small_design(13);
  ts::TransitionSystem big_ts(big);
  const std::string dir = fresh_dir("cdb_range");
  persist::PersistCache cache(dir);
  const std::uint64_t fp = 0x1234;
  const std::uint64_t sig = 0x5678;
  cache.store_clause_db(fp, sig, {{ts::StateLit{3, true}}});

  gen::RandomDesignSpec tiny;
  tiny.seed = 14;
  tiny.num_latches = 2;
  tiny.num_inputs = 1;
  tiny.num_ands = 6;
  tiny.num_properties = 1;
  aig::Aig small_aig = gen::make_random_design(tiny);
  ts::TransitionSystem small_ts(small_aig);
  EXPECT_FALSE(cache.load_clause_db(small_ts, fp, sig).has_value());
  EXPECT_EQ(cache.stats().load_errors, 1u);
}

TEST(PersistCache, MissingEntriesAreColdNotErrors) {
  aig::Aig aig = small_design(15);
  ts::TransitionSystem ts(aig);
  persist::PersistCache cache(fresh_dir("empty"));
  cnf::CnfTemplate::Spec spec;
  spec.props = {0};
  EXPECT_EQ(cache.load_template(ts, 1, spec), nullptr);
  EXPECT_FALSE(cache.load_clause_db(ts, 1, 2).has_value());
  EXPECT_EQ(cache.stats().load_errors, 0u);
  EXPECT_EQ(cache.stats().templates_loaded, 0u);
  EXPECT_EQ(cache.stats().dbs_loaded, 0u);
}

TEST(PersistCache, UnusableDirectoryThrows) {
  // A path nested under a regular file can never become a directory.
  const std::string dir = fresh_dir("blocked");
  fs::create_directories(dir);
  const std::string file = dir + "/plain_file";
  { std::ofstream(file) << "x"; }
  EXPECT_THROW(persist::PersistCache(file + "/sub"), std::runtime_error);
}

TEST(PersistCache, TemplateCacheServesWarmProcessFromStore) {
  aig::Aig aig = small_design(16);
  ts::TransitionSystem ts(aig);
  const std::string dir = fresh_dir("store");
  cnf::CnfTemplate::Spec spec;
  spec.props = {0, 1, 2};

  persist::PersistCache disk1(dir);
  cnf::TemplateCache cold(ts);
  cold.attach_store(&disk1);
  bool built = false;
  auto a = cold.get_or_build(spec, &built);
  EXPECT_TRUE(built);
  EXPECT_EQ(cold.stats().builds, 1u);
  EXPECT_EQ(disk1.stats().templates_stored, 1u);

  // A fresh process: new in-memory cache over the same directory.
  persist::PersistCache disk2(dir);
  cnf::TemplateCache warm(ts);
  warm.attach_store(&disk2);
  auto b = warm.get_or_build(spec, &built);
  EXPECT_FALSE(built);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(warm.stats().builds, 0u);
  EXPECT_EQ(warm.stats().store_loads, 1u);
  EXPECT_EQ(disk2.stats().templates_loaded, 1u);
  EXPECT_EQ(b->clauses(), a->clauses());
  EXPECT_EQ(b->num_vars(), a->num_vars());
}

// --- cold vs warm equivalence ------------------------------------------------

TEST(Persist, SchedulerColdWarmVerdictsIdenticalAndWarmBuildsNothing) {
  for (std::uint64_t seed : {21u, 22u, 23u, 24u}) {
    aig::Aig aig = small_design(seed, 4);
    ts::TransitionSystem ts(aig);
    const std::string dir = fresh_dir("sched_" + std::to_string(seed));

    mp::sched::SchedulerOptions so;
    so.proof_mode = mp::sched::ProofMode::Local;
    so.engine.cache_dir = dir;

    mp::MultiResult cold = mp::sched::Scheduler(ts, so).run();
    EXPECT_GT(template_builds(cold), 0u) << "seed " << seed;
    EXPECT_GT(cold.cache_stats.templates_stored, 0u) << "seed " << seed;

    mp::MultiResult warm = mp::sched::Scheduler(ts, so).run();
    expect_same_verdicts(ts, cold, warm, "seed " + std::to_string(seed));
    EXPECT_EQ(template_builds(warm), 0u) << "seed " << seed;
    EXPECT_GT(warm.cache_stats.templates_loaded, 0u) << "seed " << seed;
    expect_proofs_certify(ts, warm);
  }
}

TEST(Persist, ShardedColdWarmSeedsShardsFromPriorInvariants) {
  gen::SyntheticSpec spec;
  spec.seed = 31;
  spec.rings = 2;
  spec.ring_size = 5;
  spec.ring_props = 6;
  spec.pair_props = 4;
  spec.unreachable_props = 2;
  spec.det_fail_props = 1;
  aig::Aig aig = gen::make_synthetic(spec);
  ts::TransitionSystem ts(aig);
  const std::string dir = fresh_dir("sharded");

  mp::shard::ShardedOptions so;
  so.base.proof_mode = mp::sched::ProofMode::Local;
  so.base.dispatch = mp::sched::DispatchPolicy::RunToCompletion;
  so.base.engine.cache_dir = dir;
  so.clustering.max_cluster_size = 4;
  so.exchange = mp::exchange::ExchangeMode::Off;

  mp::MultiResult cold = mp::shard::ShardedScheduler(ts, so).run();
  EXPECT_GT(cold.cache_stats.dbs_stored, 0u);

  mp::MultiResult warm = mp::shard::ShardedScheduler(ts, so).run();
  expect_same_verdicts(ts, cold, warm, "sharded");
  EXPECT_EQ(template_builds(warm), 0u);
  EXPECT_GT(warm.cache_stats.templates_loaded, 0u);
  EXPECT_GT(warm.cache_stats.dbs_loaded, 0u);
  EXPECT_GT(warm.cache_stats.cubes_loaded, 0u);
  EXPECT_EQ(warm.cache_stats.load_errors, 0u);
  expect_proofs_certify(ts, warm);
}

// --- corruption --------------------------------------------------------------

enum class Damage { Truncate, VersionBump, BitFlip };

void damage_files(const std::string& dir, Damage kind) {
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    std::string bytes;
    {
      std::ifstream in(entry.path(), std::ios::binary);
      bytes.assign((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
    }
    ASSERT_GT(bytes.size(), 8u);
    switch (kind) {
      case Damage::Truncate:
        bytes.resize(bytes.size() / 2);
        break;
      case Damage::VersionBump:
        bytes[4] = static_cast<char>(bytes[4] + 1);  // u16 LE at offset 4
        break;
      case Damage::BitFlip:
        bytes[bytes.size() / 2] =
            static_cast<char>(bytes[bytes.size() / 2] ^ 0x10);
        break;
    }
    std::ofstream out(entry.path(), std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
}

class PersistDamageTest : public ::testing::TestWithParam<Damage> {};

TEST_P(PersistDamageTest, DamagedCachesAreIgnoredAndVerdictsUnchanged) {
  aig::Aig aig = small_design(41, 4);
  ts::TransitionSystem ts(aig);
  const std::string dir =
      fresh_dir("damage_" + std::to_string(static_cast<int>(GetParam())));

  mp::sched::SchedulerOptions so;
  so.proof_mode = mp::sched::ProofMode::Local;
  so.engine.cache_dir = dir;

  mp::MultiResult cold = mp::sched::Scheduler(ts, so).run();
  ASSERT_GT(cold.cache_stats.templates_stored, 0u);
  damage_files(dir, GetParam());

  mp::MultiResult damaged = mp::sched::Scheduler(ts, so).run();
  expect_same_verdicts(ts, cold, damaged, "damaged");
  EXPECT_GT(damaged.cache_stats.load_errors, 0u);
  EXPECT_EQ(damaged.cache_stats.templates_loaded, 0u);
  EXPECT_EQ(damaged.cache_stats.dbs_loaded, 0u);
  EXPECT_GT(template_builds(damaged), 0u);  // rebuilt from scratch
  expect_proofs_certify(ts, damaged);

  // The damaged run re-stored healthy entries: the next run is warm.
  mp::MultiResult repaired = mp::sched::Scheduler(ts, so).run();
  expect_same_verdicts(ts, cold, repaired, "repaired");
  EXPECT_EQ(template_builds(repaired), 0u);
  EXPECT_GT(repaired.cache_stats.templates_loaded, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllDamageKinds, PersistDamageTest,
                         ::testing::Values(Damage::Truncate,
                                           Damage::VersionBump,
                                           Damage::BitFlip));

TEST(Persist, RenamedEntryFromAnotherDesignIsRejected) {
  // Same property set, different design: copying A's template over B's
  // expected file name must be caught by the embedded fingerprint even
  // though magic, version and checksum all verify.
  aig::Aig a = small_design(51);
  aig::Aig b = small_design(52);
  ts::TransitionSystem ts_a(a);
  ts::TransitionSystem ts_b(b);
  const std::uint64_t fp_a = aig::fingerprint(a);
  const std::uint64_t fp_b = aig::fingerprint(b);
  ASSERT_NE(fp_a, fp_b);

  const std::string dir = fresh_dir("rename");
  persist::PersistCache cache(dir);
  cnf::CnfTemplate::Spec spec;
  spec.props = {0, 1};
  cache.store_template(fp_a, cnf::CnfTemplate(ts_a, spec));
  fs::copy_file(fs::path(dir) / persist::PersistCache::template_file_name(
                                    fp_a, spec),
                fs::path(dir) / persist::PersistCache::template_file_name(
                                    fp_b, spec));

  EXPECT_EQ(cache.load_template(ts_b, fp_b, spec), nullptr);
  EXPECT_EQ(cache.stats().load_errors, 1u);
  // The genuine entry still loads.
  EXPECT_NE(cache.load_template(ts_a, fp_a, spec), nullptr);
}

// --- cache eviction (persist::collect_garbage) ------------------------------

// Three valid clause-db entries with distinct names.
std::vector<fs::path> seed_gc_entries(const std::string& dir) {
  persist::PersistCache cache(dir);
  std::vector<fs::path> paths;
  for (std::uint64_t sig = 1; sig <= 3; ++sig) {
    cache.store_clause_db(0xabc, sig, {{ts::StateLit{0, sig % 2 == 0}}});
    paths.push_back(fs::path(dir) /
                    persist::PersistCache::clause_db_file_name(0xabc, sig));
  }
  for (const fs::path& p : paths) EXPECT_TRUE(fs::exists(p));
  return paths;
}

TEST(PersistGc, NeverDeletesEntriesNewerThanAgeThreshold) {
  const std::string dir = fresh_dir("gc_age");
  std::vector<fs::path> paths = seed_gc_entries(dir);

  // Everything was written just now: an age cap must keep it all.
  persist::GcOptions opts;
  opts.max_age_days = 1.0;
  persist::GcStats gc = persist::collect_garbage(dir, opts);
  EXPECT_EQ(gc.scanned, 3u);
  EXPECT_EQ(gc.kept, 3u);
  EXPECT_EQ(gc.removed_age, 0u);
  for (const fs::path& p : paths) EXPECT_TRUE(fs::exists(p));

  // Back-date one entry past the threshold: exactly that one goes.
  fs::last_write_time(paths[1], fs::file_time_type::clock::now() -
                                    std::chrono::hours(48));
  gc = persist::collect_garbage(dir, opts);
  EXPECT_EQ(gc.removed_age, 1u);
  EXPECT_EQ(gc.kept, 2u);
  EXPECT_TRUE(fs::exists(paths[0]));
  EXPECT_FALSE(fs::exists(paths[1]));
  EXPECT_TRUE(fs::exists(paths[2]));
}

TEST(PersistGc, AgeBeyondTheClockRangeEvictsNothing) {
  // A million days, or infinitely many, is past the file clock's range
  // in ticks; such a cap keeps fresh entries instead of wrapping around.
  const std::string dir = fresh_dir("gc_huge_age");
  std::vector<fs::path> paths = seed_gc_entries(dir);
  for (double days : {1e6, std::numeric_limits<double>::infinity()}) {
    persist::GcOptions opts;
    opts.max_age_days = days;
    persist::GcStats gc = persist::collect_garbage(dir, opts);
    EXPECT_EQ(gc.removed_age, 0u) << days;
    EXPECT_EQ(gc.kept, 3u) << days;
  }
  for (const fs::path& p : paths) EXPECT_TRUE(fs::exists(p));
}

TEST(PersistGc, SweepsCorruptEntriesAndStaleStagingFiles) {
  const std::string dir = fresh_dir("gc_corrupt");
  std::vector<fs::path> paths = seed_gc_entries(dir);
  { std::ofstream(fs::path(dir) / "broken.jvpc") << "not an envelope"; }
  { std::ofstream(fs::path(dir) / "x.jvpc.tmp.1234.5") << "abandoned"; }
  { std::ofstream(fs::path(dir) / "unrelated.txt") << "foreign"; }

  persist::GcStats gc = persist::collect_garbage(dir, {});
  EXPECT_EQ(gc.removed_corrupt, 1u);
  EXPECT_EQ(gc.removed_stale_tmp, 1u);
  EXPECT_EQ(gc.kept, 3u);
  for (const fs::path& p : paths) EXPECT_TRUE(fs::exists(p));
  EXPECT_FALSE(fs::exists(fs::path(dir) / "broken.jvpc"));
  EXPECT_FALSE(fs::exists(fs::path(dir) / "x.jvpc.tmp.1234.5"));
  // GC never touches files that are not cache entries.
  EXPECT_TRUE(fs::exists(fs::path(dir) / "unrelated.txt"));
}

TEST(PersistGc, SizeEvictionRemovesOldestFirst) {
  const std::string dir = fresh_dir("gc_size");
  std::vector<fs::path> paths = seed_gc_entries(dir);
  // Stamp distinct ages: paths[2] oldest, paths[0] newest.
  const auto now = fs::file_time_type::clock::now();
  fs::last_write_time(paths[2], now - std::chrono::hours(3));
  fs::last_write_time(paths[1], now - std::chrono::hours(2));
  fs::last_write_time(paths[0], now - std::chrono::hours(1));

  // Cap at the size of two entries: the single oldest must go.
  const std::uint64_t entry = fs::file_size(paths[0]);
  persist::GcOptions opts;
  opts.max_bytes = 2 * entry;
  persist::GcStats gc = persist::collect_garbage(dir, opts);
  EXPECT_EQ(gc.removed_size, 1u);
  EXPECT_TRUE(fs::exists(paths[0]));
  EXPECT_TRUE(fs::exists(paths[1]));
  EXPECT_FALSE(fs::exists(paths[2]));
  EXPECT_LE(gc.bytes_after, opts.max_bytes);

  // Evicted entries are rebuilt, not mourned: the cache still works.
  aig::Aig aig = small_design(16);
  ts::TransitionSystem ts(aig);
  persist::PersistCache cache(dir);
  EXPECT_TRUE(cache.load_clause_db(ts, 0xabc, 1).has_value());
  EXPECT_FALSE(cache.load_clause_db(ts, 0xabc, 3).has_value());
  EXPECT_EQ(cache.stats().load_errors, 0u);  // missing = cold, not error
}

TEST(PersistGc, NonDirectoryThrows) {
  const std::string dir = fresh_dir("gc_nodir");
  EXPECT_THROW(persist::collect_garbage(dir + "/missing", {}),
               std::runtime_error);
}

}  // namespace
}  // namespace javer
