#include "mp/clause_db.h"

#include <charconv>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace javer::mp {

ClauseDb::ClauseDb(const ClauseDb& other) {
  base::MutexLock lock(other.mutex_);
  cubes_ = other.cubes_;
}

std::size_t ClauseDb::add(const std::vector<ts::Cube>& cubes) {
  base::MutexLock lock(mutex_);
  std::size_t added = 0;
  for (const ts::Cube& c : cubes) {
    ts::Cube sorted = c;
    ts::sort_cube(sorted);
    if (cubes_.insert(sorted).second) added++;
  }
  if (added > 0) cache_.reset();
  return added;
}

std::vector<ts::Cube> ClauseDb::snapshot() const { return *shared_snapshot(); }

std::shared_ptr<const std::vector<ts::Cube>> ClauseDb::shared_snapshot()
    const {
  base::MutexLock lock(mutex_);
  if (!cache_) {
    cache_ = std::make_shared<const std::vector<ts::Cube>>(cubes_.begin(),
                                                           cubes_.end());
  }
  return cache_;
}

std::size_t ClauseDb::size() const {
  base::MutexLock lock(mutex_);
  return cubes_.size();
}

void ClauseDb::clear() {
  base::MutexLock lock(mutex_);
  cubes_.clear();
  cache_.reset();
}

void ClauseDb::save(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("clausedb: cannot open " + path);
  for (const ts::Cube& c : snapshot()) {
    for (std::size_t i = 0; i < c.size(); ++i) {
      if (i > 0) out << ' ';
      out << (c[i].value ? '+' : '-') << c[i].latch;
    }
    out << '\n';
  }
}

ClauseDb ClauseDb::load(const std::string& path) {
  ClauseDb db;
  db.load_file(path);
  return db;
}

ShardedClauseDb::ShardedClauseDb(std::size_t num_shards) {
  shards_.reserve(num_shards);
  for (std::size_t i = 0; i < num_shards; ++i) {
    shards_.push_back(std::make_unique<ClauseDb>());
  }
}

std::size_t ShardedClauseDb::seed_all(const std::vector<ts::Cube>& cubes) {
  std::size_t added = 0;
  for (auto& shard : shards_) added += shard->add(cubes);
  return added;
}

std::vector<ts::Cube> ShardedClauseDb::merged_snapshot() const {
  std::set<ts::Cube> merged;
  for (const auto& shard : shards_) {
    for (const ts::Cube& c : *shard->shared_snapshot()) merged.insert(c);
  }
  return std::vector<ts::Cube>(merged.begin(), merged.end());
}

std::size_t ShardedClauseDb::total_size() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) total += shard->size();
  return total;
}

std::size_t ClauseDb::load_file(const std::string& path,
                                std::size_t num_latches) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("clausedb: cannot open " + path);
  std::string line;
  std::vector<ts::Cube> batch;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream ss(line);
    std::string token;
    ts::Cube cube;
    while (ss >> token) {
      // A sign, then decimal digits that fit an int, and nothing else.
      int latch = -1;
      const char* end = token.data() + token.size();
      if (token.size() >= 2 && (token[0] == '+' || token[0] == '-') &&
          token[1] >= '0' && token[1] <= '9') {
        auto [ptr, ec] = std::from_chars(token.data() + 1, end, latch);
        if (ec != std::errc() || ptr != end) latch = -1;
      }
      if (latch < 0) {
        throw std::runtime_error("clausedb: bad token '" + token + "'");
      }
      if (static_cast<std::size_t>(latch) >= num_latches) {
        throw std::runtime_error(
            "clausedb: latch " + std::to_string(latch) +
            " out of range (design has " + std::to_string(num_latches) +
            " latches)");
      }
      cube.push_back(ts::StateLit{latch, token[0] == '+'});
    }
    if (!cube.empty()) batch.push_back(std::move(cube));
  }
  return add(batch);
}

}  // namespace javer::mp
