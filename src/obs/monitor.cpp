#include "obs/monitor.h"

#include <algorithm>
#include <cstdio>
#include <ostream>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace javer::obs {

namespace {

const char* state_name(ProgressState s) {
  switch (s) {
    case ProgressState::kPending:
      return "pending";
    case ProgressState::kRunning:
      return "running";
    case ProgressState::kHolds:
      return "holds";
    case ProgressState::kFails:
      return "fails";
    case ProgressState::kUnknown:
      return "unknown";
  }
  return "?";
}

bool terminal(ProgressState s) {
  return s == ProgressState::kHolds || s == ProgressState::kFails ||
         s == ProgressState::kUnknown;
}

}  // namespace

// --- TaskProgress ----------------------------------------------------------

TaskProgress::TaskProgress(ProgressBoard* board, long long property,
                           int shard)
    : board_(board), property_(property), shard_(shard) {
  touch();
}

void TaskProgress::touch() {
  last_activity_us_.store(board_->now_us(), std::memory_order_relaxed);
}

void TaskProgress::set_state(ProgressState s) {
  state_.store(static_cast<std::uint8_t>(s), std::memory_order_relaxed);
  touch();
}

// --- ProgressBoard ---------------------------------------------------------

ProgressBoard::ProgressBoard() : epoch_(std::chrono::steady_clock::now()) {}

std::int64_t ProgressBoard::now_us() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

TaskProgress* ProgressBoard::register_task(long long property, int shard) {
  base::MutexLock lock(mu_);
  cells_.emplace_back(this, property, shard);
  return &cells_.back();
}

std::vector<TaskProgress*> ProgressBoard::entries() const {
  base::MutexLock lock(mu_);
  std::vector<TaskProgress*> out;
  out.reserve(cells_.size());
  for (const TaskProgress& cell : cells_) {
    out.push_back(const_cast<TaskProgress*>(&cell));
  }
  return out;
}

// --- ProgressMonitor -------------------------------------------------------

ProgressMonitor::ProgressMonitor(ProgressBoard* board, MonitorOptions opts,
                                 Tracer* tracer, MetricsRegistry* metrics)
    : board_(board), opts_(opts), tracer_(tracer), metrics_(metrics) {}

ProgressMonitor::~ProgressMonitor() { stop(); }

void ProgressMonitor::start() {
  base::MutexLock control(control_mu_);
  if (thread_.joinable()) {
    return;
  }
  {
    base::MutexLock lock(mu_);
    stop_requested_ = false;
  }
  thread_ = std::thread([this] { thread_main(); });
}

void ProgressMonitor::stop() {
  base::MutexLock control(control_mu_);
  {
    base::MutexLock lock(mu_);
    stop_requested_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) {
    thread_.join();
  }
  if (!final_rendered_) {
    final_rendered_ = true;
    std::vector<TaskProgress*> cells = board_->entries();
    Totals t = run_watchdog(cells);
    if (opts_.out != nullptr) {
      render(*opts_.out, t, cells, /*final=*/true);
    }
  }
}

void ProgressMonitor::thread_main() {
  // One wait is capped at a day: a duration past the clock's range
  // overflows when converted to ticks and the wait returns at once, which
  // would turn this loop into a busy poll. A longer interval samples once
  // a day.
  constexpr double kMaxWaitSeconds = 86400.0;
  auto interval = std::chrono::duration<double>(
      opts_.interval_seconds > 0.0
          ? std::min(opts_.interval_seconds, kMaxWaitSeconds)
          : 1.0);
  mu_.lock();
  while (!stop_requested_) {
    cv_.wait_for(mu_, interval);
    if (stop_requested_) {
      break;
    }
    mu_.unlock();
    poll();
    mu_.lock();
  }
  mu_.unlock();
}

void ProgressMonitor::poll() {
  std::vector<TaskProgress*> cells = board_->entries();
  Totals t = run_watchdog(cells);
  if (opts_.out != nullptr) {
    render(*opts_.out, t, cells, /*final=*/false);
  }
}

ProgressMonitor::Totals ProgressMonitor::run_watchdog(
    const std::vector<TaskProgress*>& cells) {
  Totals t;
  std::int64_t now = board_->now_us();
  // Compared in double: an infinite threshold never fires, where its
  // conversion to an integer would be undefined.
  const double threshold_us = opts_.stall_seconds * 1e6;
  for (TaskProgress* cell : cells) {
    ProgressState s = cell->state();
    if (cell->property() >= 0) {
      ++t.props;
      switch (s) {
        case ProgressState::kHolds:
          ++t.holds;
          break;
        case ProgressState::kFails:
          ++t.fails;
          break;
        case ProgressState::kUnknown:
          ++t.unknown;
          break;
        case ProgressState::kRunning:
          ++t.running;
          break;
        case ProgressState::kPending:
          break;
      }
      t.max_frames = std::max(t.max_frames, cell->frames());
      t.obligations += cell->obligations();
    }
    t.max_depth = std::max(t.max_depth, cell->depth());

    // Stall watchdog: one instant + metric per stall *episode* (the
    // latch resets when activity resumes).
    if (s != ProgressState::kRunning) {
      cell->stalled_ = false;
      continue;
    }
    std::int64_t age = now - cell->last_activity_us();
    if (static_cast<double>(age) <= threshold_us) {
      cell->stalled_ = false;
      continue;
    }
    if (cell->stalled_) {
      continue;
    }
    cell->stalled_ = true;
    stalls_.fetch_add(1, std::memory_order_relaxed);
    if (metrics_ != nullptr) {
      metrics_->add("obs.stalls");
    }
    if (tracer_ != nullptr) {
      TraceSink sink(tracer_, cell->shard(), cell->property());
      char args[64];
      std::snprintf(args, sizeof(args), "\"age_ms\":%lld",
                    static_cast<long long>(age / 1000));
      sink.instant("watchdog", "stall", /*slice=*/-1, args);
    }
  }
  return t;
}

void ProgressMonitor::render(std::ostream& out, const Totals& t,
                             const std::vector<TaskProgress*>& cells,
                             bool final) const {
  double elapsed = static_cast<double>(board_->now_us()) / 1e6;
  char line[256];
  if (final) {
    // Non-terminal cells at shutdown are unsolved from the caller's
    // point of view; fold them into `unknown` so the final totals line
    // matches the report verdict counts.
    std::size_t unknown = t.unknown + t.running +
                          (t.props - t.holds - t.fails - t.unknown -
                           t.running);
    std::snprintf(line, sizeof(line),
                  "progress: final t=%.1fs props=%zu holds=%zu fails=%zu "
                  "unknown=%zu stalls=%llu",
                  elapsed, t.props, t.holds, t.fails, unknown,
                  static_cast<unsigned long long>(stall_events()));
  } else {
    std::size_t closed = t.holds + t.fails + t.unknown;
    std::snprintf(line, sizeof(line),
                  "progress: t=%.1fs props=%zu closed=%zu/%zu (holds=%zu "
                  "fails=%zu unknown=%zu) running=%zu frames<=%d "
                  "depth<=%d obls=%llu stalls=%llu",
                  elapsed, t.props, closed, t.props, t.holds, t.fails,
                  t.unknown, t.running, t.max_frames, t.max_depth,
                  static_cast<unsigned long long>(t.obligations),
                  static_cast<unsigned long long>(stall_events()));
  }
  out << line;
  if (metrics_ != nullptr) {
    std::uint64_t rounds = metrics_->counter("sched.rounds");
    if (rounds > 0) {
      out << " rounds=" << rounds;
    }
  }
  out << "\n";

  if (opts_.verbose && !final) {
    // The stalest open cells first — the ones a human debugging a hung
    // run wants to see.
    std::vector<TaskProgress*> open;
    for (TaskProgress* cell : cells) {
      if (!terminal(cell->state())) {
        open.push_back(cell);
      }
    }
    std::sort(open.begin(), open.end(),
              [](const TaskProgress* a, const TaskProgress* b) {
                return a->last_activity_us() < b->last_activity_us();
              });
    if (open.size() > opts_.verbose_max_rows) {
      open.resize(opts_.verbose_max_rows);
    }
    std::int64_t now = board_->now_us();
    for (const TaskProgress* cell : open) {
      double idle =
          static_cast<double>(now - cell->last_activity_us()) / 1e6;
      char row[256];
      if (cell->property() >= 0) {
        std::snprintf(row, sizeof(row),
                      "progress:   [s%d] P%lld %s frames=%d obls=%llu "
                      "slices=%llu idle=%.2fs",
                      cell->shard(), cell->property(),
                      state_name(cell->state()), cell->frames(),
                      static_cast<unsigned long long>(cell->obligations()),
                      static_cast<unsigned long long>(cell->slices()),
                      idle);
      } else {
        std::snprintf(row, sizeof(row),
                      "progress:   [s%d] sweep %s depth=%d idle=%.2fs",
                      cell->shard(), state_name(cell->state()),
                      cell->depth(), idle);
      }
      out << row << "\n";
    }
  }
  out.flush();
}

}  // namespace javer::obs
