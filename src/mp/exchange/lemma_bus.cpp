#include "mp/exchange/lemma_bus.h"

#include <cstddef>
#include <string>

namespace javer::mp::exchange {

const char* to_string(ExchangeMode m) {
  return m == ExchangeMode::Off ? "off" : "units";
}

std::optional<ExchangeMode> parse_exchange_mode(const std::string& text) {
  if (text == "off") return ExchangeMode::Off;
  if (text == "units") return ExchangeMode::Units;
  return std::nullopt;
}

LemmaBus::LemmaBus(std::size_t num_shards, ExchangeMode mode)
    : enabled_(mode != ExchangeMode::Off) {
  channels_.reserve(num_shards);
  for (std::size_t i = 0; i < num_shards; ++i) {
    channels_.push_back(std::make_unique<Channel>());
  }
}

std::size_t LemmaBus::publish(std::size_t shard,
                              const std::vector<ts::Cube>& cubes) {
  if (!enabled_ || cubes.empty() || shard >= channels_.size()) return 0;
  Channel& ch = *channels_[shard];
  {
    base::MutexLock lock(ch.mutex);
    ch.log.insert(ch.log.end(), cubes.begin(), cubes.end());
    ch.stats.published += cubes.size();
  }
  trace_.with_shard(static_cast<int>(shard))
      .instant("exchange", "publish_bmc_units");
  return cubes.size();
}

std::vector<ts::Cube> LemmaBus::poll(std::size_t shard, Cursor& cursor) {
  std::vector<ts::Cube> out;
  if (shard >= channels_.size()) return out;
  Channel& ch = *channels_[shard];
  {
    base::MutexLock lock(ch.mutex);
    if (cursor.next < ch.log.size()) {
      out.assign(ch.log.begin() + static_cast<std::ptrdiff_t>(cursor.next),
                 ch.log.end());
      cursor.next = ch.log.size();
    }
    ch.stats.delivered += out.size();
  }
  if (!out.empty()) {
    trace_.with_shard(static_cast<int>(shard)).instant("exchange", "deliver");
  }
  return out;
}

void LemmaBus::record_import(std::size_t shard, std::uint64_t imported,
                             std::uint64_t rejected, std::uint64_t redundant) {
  if (!enabled_ || shard >= channels_.size()) return;
  Channel& ch = *channels_[shard];
  base::MutexLock lock(ch.mutex);
  ch.stats.imported += imported;
  ch.stats.rejected += rejected;
  ch.stats.redundant += redundant;
}

std::size_t LemmaBus::log_size(std::size_t shard) const {
  if (shard >= channels_.size()) return 0;
  Channel& ch = *channels_[shard];
  base::MutexLock lock(ch.mutex);
  return ch.log.size();
}

ExchangeStats LemmaBus::stats() const {
  ExchangeStats s;
  for (std::size_t i = 0; i < channels_.size(); ++i) {
    ExchangeStats c = channel_stats(i);
    s.published += c.published;
    s.delivered += c.delivered;
    s.imported += c.imported;
    s.rejected += c.rejected;
    s.redundant += c.redundant;
  }
  return s;
}

ExchangeStats LemmaBus::channel_stats(std::size_t shard) const {
  if (shard >= channels_.size()) return {};
  Channel& ch = *channels_[shard];
  base::MutexLock lock(ch.mutex);
  return ch.stats;
}

}  // namespace javer::mp::exchange
