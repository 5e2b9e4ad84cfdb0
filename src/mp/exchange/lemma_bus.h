// LemmaBus: the thread-safe channel behind the sharded scheduler's lemma
// exchange (mp/shard). Each shard owns one channel with one producer, the
// shard's BmcSweep: the unit cubes it learned about the unrolling prefix
// are offered to the shard's IC3 tasks as F_inf candidates. Lemmas
// published into a channel never leave it, and every IC3 consumer
// re-validates each candidate in its own context, so the traffic can save
// work but never flip a verdict.
//
// Proven IC3 strengthenings do not travel here: they reach sibling tasks
// through the ClauseDb (mp/clause_db.h), the paper's clauseDB.
//
// Consumers are cursor-based: each holds its own Cursor into the
// channel's append-only log, so polling is independent per consumer and
// nothing is ever delivered twice to the same consumer.
#ifndef JAVER_MP_EXCHANGE_LEMMA_BUS_H
#define JAVER_MP_EXCHANGE_LEMMA_BUS_H

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "base/sync.h"
#include "obs/trace.h"
#include "ts/transition_system.h"

namespace javer::mp::exchange {

enum class ExchangeMode : std::uint8_t {
  Off,    // no traffic at all
  Units,  // BMC prefix units into IC3
};

const char* to_string(ExchangeMode m);
// Parses "off" / "units"; nullopt otherwise (CLI plumbing).
std::optional<ExchangeMode> parse_exchange_mode(const std::string& text);

// Traffic counters; `imported`/`rejected`/`redundant` are filled in by the
// consumers' re-validation reports (record_import), so
// imported / delivered is the exchange hit rate the benches track.
struct ExchangeStats {
  std::uint64_t published = 0;  // lemmas accepted into a channel
  std::uint64_t delivered = 0;  // lemmas handed out by poll()
  std::uint64_t imported = 0;   // survived a consumer's re-validation
  std::uint64_t rejected = 0;   // failed a consumer's re-validation
  std::uint64_t redundant = 0;  // delivered but already proven there

  double hit_rate() const {
    return delivered == 0
               ? 0.0
               : static_cast<double>(imported) / static_cast<double>(delivered);
  }
};

class LemmaBus {
 public:
  // A consumer's private position in one channel's log.
  struct Cursor {
    std::size_t next = 0;
  };

  LemmaBus(std::size_t num_shards, ExchangeMode mode);

  bool enabled() const { return enabled_; }
  std::size_t num_shards() const { return channels_.size(); }

  // Appends cubes to `shard`'s channel and returns how many were
  // accepted; a disabled bus accepts nothing. The one producer, the
  // shard's BmcSweep, offers each cube at most once.
  std::size_t publish(std::size_t shard, const std::vector<ts::Cube>& cubes);

  // Cubes published to `shard` since `cursor`, advancing it to the end of
  // the log.
  std::vector<ts::Cube> poll(std::size_t shard, Cursor& cursor);

  // Consumers report their re-validation outcome for `shard`'s channel
  // here so stats()/channel_stats() can expose the hit rate. Ignored when
  // the bus is disabled: it delivers nothing, so no report can be about
  // bus traffic — letting one through would make the bench hit-rate
  // metrics claim imports for a bus that was off.
  void record_import(std::size_t shard, std::uint64_t imported,
                     std::uint64_t rejected, std::uint64_t redundant = 0);

  // Entries in `shard`'s append-only log (diagnostics/tests; delivered or
  // not — the log never shrinks).
  std::size_t log_size(std::size_t shard) const;

  // Totals across every channel.
  ExchangeStats stats() const;
  // One channel's own traffic (per-shard exchange summary in
  // print_report). Out-of-range shards report all-zero.
  ExchangeStats channel_stats(std::size_t shard) const;

  // Publish/deliver instant events land on `sink`'s tracer, retagged with
  // the channel's shard. The sink is copied; pass a default-constructed
  // one (or never call this) to keep the bus silent.
  void set_trace(const obs::TraceSink& sink) { trace_ = sink; }

 private:
  struct Channel {
    base::Mutex mutex;
    std::vector<ts::Cube> log GUARDED_BY(mutex);  // append-only
    ExchangeStats stats GUARDED_BY(mutex);
  };

  bool enabled_;
  obs::TraceSink trace_;
  std::vector<std::unique_ptr<Channel>> channels_;
};

}  // namespace javer::mp::exchange

#endif  // JAVER_MP_EXCHANGE_LEMMA_BUS_H
