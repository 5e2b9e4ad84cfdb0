// ClauseDb tests: dedup, snapshots, persistence, concurrent access.
#include <gtest/gtest.h>

#include <cstdio>
#include <thread>

#include "mp/clause_db.h"

namespace javer::mp {
namespace {

TEST(ClauseDb, AddAndDeduplicate) {
  ClauseDb db;
  ts::Cube a{{0, true}, {2, false}};
  ts::Cube a_unsorted{{2, false}, {0, true}};
  ts::Cube b{{1, true}};
  EXPECT_EQ(db.add({a, b}), 2u);
  EXPECT_EQ(db.add({a_unsorted}), 0u);  // same cube after sorting
  EXPECT_EQ(db.size(), 2u);
  auto snap = db.snapshot();
  EXPECT_EQ(snap.size(), 2u);
}

TEST(ClauseDb, ClearEmpties) {
  ClauseDb db;
  db.add({{{0, true}}});
  EXPECT_EQ(db.size(), 1u);
  db.clear();
  EXPECT_EQ(db.size(), 0u);
}

TEST(ClauseDb, CopyIsDeep) {
  ClauseDb db;
  db.add({{{0, true}}});
  ClauseDb copy(db);
  copy.add({{{1, false}}});
  EXPECT_EQ(db.size(), 1u);
  EXPECT_EQ(copy.size(), 2u);
}

TEST(ClauseDb, SaveAndLoadRoundTrip) {
  ClauseDb db;
  db.add({{{0, true}, {3, false}}, {{7, true}}});
  std::string path = testing::TempDir() + "/clausedb_test.txt";
  db.save(path);
  ClauseDb loaded = ClauseDb::load(path);
  EXPECT_EQ(loaded.snapshot(), db.snapshot());
  std::remove(path.c_str());
}

TEST(ClauseDb, LoadRejectsGarbage) {
  std::string path = testing::TempDir() + "/clausedb_bad.txt";
  for (const char* text :
       {"x3 +4\n", "+abc\n", "+-3\n", "+3x\n", "+99999999999\n"}) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    std::fputs(text, f);
    std::fclose(f);
    EXPECT_THROW(ClauseDb::load(path), std::runtime_error) << text;
  }
  std::remove(path.c_str());
}

TEST(ClauseDb, LoadRejectsLatchOutOfRange) {
  std::string path = testing::TempDir() + "/clausedb_range.txt";
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    std::fputs("+0 -3\n", f);
    std::fclose(f);
  }
  ClauseDb db;
  EXPECT_THROW(db.load_file(path, 3), std::runtime_error);
  EXPECT_EQ(db.size(), 0u) << "a rejected file adds nothing";
  EXPECT_EQ(db.load_file(path, 4), 1u);
  std::remove(path.c_str());
}

TEST(ClauseDb, ConcurrentAddersDoNotRace) {
  ClauseDb db;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 200;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&db, t]() {
      for (int i = 0; i < kPerThread; ++i) {
        // Half the cubes collide across threads, half are unique.
        int latch = (i % 2 == 0) ? i : t * 1000 + i;
        db.add({{{latch, true}}});
        (void)db.snapshot();
      }
    });
  }
  for (auto& t : pool) t.join();
  // Unique cubes: 100 shared (i even) + 8*100 odd per-thread uniques.
  EXPECT_EQ(db.size(), 100u + kThreads * 100u);
}

}  // namespace
}  // namespace javer::mp
