// Built-in RunSinks for the streaming session API (engine/session.h):
//
//   AggregatingSink  reproduces the legacy SweepResult — bit-identical to
//                    the pre-session run_sweep at any thread count, for the
//                    full plan or any shard (absolute cell indices kept).
//   RecordSink       streams one self-describing JSONL row per finished
//                    run as tasks retire: O(1) state, so sweep memory no
//                    longer scales with replicate count. Rows are strict
//                    JSON (non-finite values serialize as null) and the
//                    stream is byte-identical at any thread count because
//                    the session delivers records in task order.
//   ProgressSink     rate-limited progress line on a terminal stream —
//                    mid-flight observability the monolithic API never had.
#pragma once

#include <chrono>
#include <iosfwd>
#include <string>
#include <vector>

#include "engine/session.h"

namespace mrca::engine {

/// Folds records into per-cell aggregates in task order, skipping NaN
/// values (the column lists' policy, engine/session.h), emitting each
/// CellResult as its last replicate arrives — peak state is ONE open cell,
/// not the whole run matrix.
class AggregatingSink final : public RunSink {
 public:
  void begin(const SweepPlan& plan) override;
  void consume(const RunRecord& record) override;
  void finish() override;

  /// The aggregate (valid after finish()). `take_result` leaves the sink
  /// empty.
  const SweepResult& result() const& noexcept { return result_; }
  SweepResult take_result() && { return std::move(result_); }

 private:
  SweepResult result_;
  CellResult open_cell_;
  bool cell_open_ = false;
};

/// One JSONL row per run: cell coordinates, seed, dynamics outcome,
/// scenario columns, metric values (named by column), sim-tier replays.
/// The caller owns the stream; finish() flushes it.
class RecordSink final : public RunSink {
 public:
  explicit RecordSink(std::ostream& out) : out_(&out) {}

  void begin(const SweepPlan& plan) override;
  void consume(const RunRecord& record) override;
  void finish() override;

  std::size_t records_written() const noexcept { return records_; }

 private:
  std::ostream* out_;
  std::vector<std::string> metric_columns_;
  /// Each fixed column's JSON key with its leading separator, quoted once
  /// per session rather than once per row.
  std::vector<std::string> run_keys_;
  std::vector<std::string> sim_keys_;
  std::size_t records_ = 0;
};

/// "\rsweep [shard i/n]: 123/456 runs (27%)" on `out`, redrawn at most
/// once per `min_interval` (wall clock) plus always on the final run;
/// finish() terminates the line. Display only — deliberately the one sink
/// whose output depends on timing, which is why it writes to stderr and
/// never into a result file.
///
/// Format::kJson swaps the human frame for one strict-JSON object per
/// update (same rate limit, same always-on-final-run rule, no '\r'):
///   {"type":"progress","shard_index":i,"shard_count":n,"cell_begin":B,
///    "cell_end":E,"cells_total":T,"cells_done":c,"runs_done":d,
///    "runs_total":t,"records":d,"elapsed_s":x}
/// This is the machine seam `mrca farm` reads from each child's stderr:
/// counters are monotonic so a parser may drop lines, and any line at all
/// doubles as a liveness signal for the stall watchdog.
class ProgressSink final : public RunSink {
 public:
  enum class Format { kHuman, kJson };

  explicit ProgressSink(
      std::ostream& out,
      std::chrono::milliseconds min_interval = std::chrono::milliseconds(100),
      Format format = Format::kHuman)
      : out_(&out), min_interval_(min_interval), format_(format) {}

  void begin(const SweepPlan& plan) override;
  void consume(const RunRecord& record) override;
  void finish() override;

 private:
  void draw();

  std::ostream* out_;
  std::chrono::milliseconds min_interval_;
  Format format_ = Format::kHuman;
  std::chrono::steady_clock::time_point last_draw_;
  std::chrono::steady_clock::time_point begin_time_;
  std::string label_;
  std::size_t done_ = 0;
  std::size_t total_ = 0;
  std::size_t cells_done_ = 0;
  std::size_t replicates_ = 1;
  std::size_t shard_index_ = 0;
  std::size_t shard_count_ = 1;
  std::size_t cell_begin_ = 0;
  std::size_t cell_end_ = 0;
  std::size_t cells_total_ = 0;
  /// done_ value of the last JSON line, so finish() never duplicates the
  /// final-run line consume() already emitted.
  std::size_t last_drawn_done_ = 0;
};

}  // namespace mrca::engine
