// perfbench: times one sweep workload end to end (--trace 0) or traces it
// layer by layer (--trace 1), checks its outputs, and prints one JSON
// result line last. perfbench/run.py builds this binary and supplies the
// workload's `mrca sweep` flags after `--`.
//
//   perfbench --workload NAME --seconds S --trace 0|1 --work DIR
//             --mrca PATH [--records] [--shard-check]
//             -- <mrca sweep flags>
//
// --records streams the JSONL records the workload asks for; --shard-check
// adds the 3-shard merge and the 3-shard farm comparisons. Timed sweeps
// write their outputs into byte digests (digest.h), not files; DIR holds
// the traced run's span file and the farm's shard files.
// Exit status: 0 when every check passed, 1 on a mismatch (the result line
// still prints, with "correct": false), 2 on bad usage or a failed run,
// 3 when the build is not a Release build.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/dynamics/engine.h"
#include "digest.h"
#include "engine/farm.h"
#include "engine/session.h"
#include "engine/sinks.h"
#include "engine/sweep_io.h"
#include "spec_args.h"
#include "trace.h"
#include "traced_sweep.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using namespace mrca;
using namespace mrca::engine;

struct Options {
  std::string workload;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;
  std::string mrca_path;
  bool records = false;
  bool shard_check = false;
  std::vector<std::string> sweep_flags;
};

Options parse_options(int argc, char** argv) {
  Options options;
  int i = 1;
  const auto value = [&](const std::string& flag) -> std::string {
    if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
    return argv[++i];
  };
  for (; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--") {
      options.sweep_flags.assign(argv + i + 1, argv + argc);
      break;
    }
    if (arg == "--workload") {
      options.workload = value(arg);
    } else if (arg == "--seconds") {
      options.seconds = std::stod(value(arg));
    } else if (arg == "--trace") {
      options.trace = value(arg) == "1";
    } else if (arg == "--work") {
      options.work_dir = value(arg);
    } else if (arg == "--mrca") {
      options.mrca_path = value(arg);
    } else if (arg == "--records") {
      options.records = true;
    } else if (arg == "--shard-check") {
      options.shard_check = true;
    } else {
      throw std::invalid_argument("unknown option '" + arg + "'");
    }
  }
  if (options.workload.empty() || options.work_dir.empty() ||
      options.sweep_flags.empty()) {
    throw std::invalid_argument(
        "--workload, --work and the sweep flags after -- are required");
  }
  return options;
}

// ------------------------------------------------------------ helpers --

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read '" + path + "'");
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

double mean(const std::vector<double>& values) {
  double sum = 0.0;
  for (double value : values) sum += value;
  return sum / static_cast<double>(values.size());
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Peak resident set of this process (VmHWM), MB.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

std::size_t failed_runs(const SweepResult& result) {
  std::size_t failed = 0;
  for (const CellResult& cell : result.cells) {
    failed += cell.runs - cell.converged;
  }
  return failed;
}

/// Collects check verdicts; any failure makes the run incorrect.
class Checks {
 public:
  void expect(bool ok, const std::string& what) {
    std::cout << "check " << what << ": " << (ok ? "ok" : "MISMATCH")
              << '\n';
    ok_ = ok_ && ok;
  }
  bool ok() const { return ok_; }

 private:
  bool ok_ = true;
};

// ------------------------------------------------------- timed sweep --

/// Stamps the moment run_session hands the sinks the plan: every model
/// is built by then.
class PhaseClock final : public RunSink {
 public:
  void begin(const SweepPlan&) override { begun = Clock::now(); }
  void consume(const RunRecord&) override {}
  Clock::time_point begun;
};

struct SetupDone {};

/// Aborts the session at begin(): what remains is plan and model set-up.
class StopAtBegin final : public RunSink {
 public:
  void begin(const SweepPlan&) override { throw SetupDone{}; }
  void consume(const RunRecord&) override {}
};

struct SweepTiming {
  double wall_s = 0.0;
  double setup_s = 0.0;
  double exec_s = 0.0;
  std::size_t runs = 0;
  std::size_t workers = 1;
  std::size_t max_buffered = 0;
  SweepResult result;
};

/// One untraced sweep through the public session API, from
/// SweepPlan::build to the last output byte written: the aggregate in the
/// workload's format to `aggregate_out`, and the JSONL record stream to
/// `records_out` when it is set.
SweepTiming timed_sweep(const Workload& workload, std::ostream& aggregate_out,
                        std::ostream* records_out) {
  SweepTiming timing;
  const Clock::time_point t0 = Clock::now();
  const SweepPlan plan = SweepPlan::build(workload.spec);
  PhaseClock clock;
  AggregatingSink aggregate;
  std::vector<RunSink*> sinks = {&clock, &aggregate};
  std::optional<RecordSink> records;
  if (records_out != nullptr) sinks.push_back(&records.emplace(*records_out));
  SessionOptions session;
  session.threads = workload.threads;
  const SessionStats stats = run_session(plan, sinks, session);
  const Clock::time_point executed = Clock::now();
  if (records_out != nullptr && !records_out->flush()) {
    throw std::runtime_error("failed writing records");
  }
  timing.result = std::move(aggregate).take_result();
  timing.result.threads_used = stats.threads_used;
  write_sweep(aggregate_out, timing.result, workload.format);
  if (!aggregate_out.flush()) {
    throw std::runtime_error("failed writing the aggregate");
  }
  const Clock::time_point t1 = Clock::now();

  timing.wall_s = seconds_between(t0, t1);
  timing.setup_s = seconds_between(t0, clock.begun);
  timing.exec_s = seconds_between(clock.begun, executed);
  timing.runs = plan.num_runs();
  timing.workers = stats.threads_used;
  timing.max_buffered = stats.max_buffered;
  return timing;
}

double setup_only(const Workload& workload) {
  const Clock::time_point t0 = Clock::now();
  const SweepPlan plan = SweepPlan::build(workload.spec);
  StopAtBegin stop;
  try {
    run_session(plan, stop);
  } catch (const SetupDone&) {
    return seconds_between(t0, Clock::now());
  }
  throw std::logic_error("run_session did not call begin()");
}

/// Runs the plan's 3 shards as separate sessions and merges them.
SweepResult sharded_result(const Workload& workload, double* merge_s) {
  const SweepPlan plan = SweepPlan::build(workload.spec);
  std::vector<SweepResult> shards;
  for (std::size_t i = 0; i < 3; ++i) {
    AggregatingSink aggregate;
    SessionOptions session;
    session.threads = workload.threads;
    run_session(plan.shard(i, 3), aggregate, session);
    shards.push_back(std::move(aggregate).take_result());
  }
  const Clock::time_point t0 = Clock::now();
  SweepResult merged = merge_sweep_results(shards);
  *merge_s = seconds_between(t0, Clock::now());
  return merged;
}

// ------------------------------------------------------------- probes --

/// Known defects, reported by name; neither timed nor gating.
void run_probes(std::uint64_t seed) {
  {
    // A strict DCF table for 4 users x 1 radio ends at load 4; the scan
    // must not price load 5 on a channel that already holds every radio.
    std::string verdict = "pass";
    try {
      const GameModel model = ScenarioSpec{}.make_model(
          4, 3, 1, RateSpec::parse("dcf").make(4));
      StrategyMatrix crowded = model.empty_strategy();
      for (UserId user = 0; user < 4; ++user) crowded.add_radio(user, 0);
      for (UserId user = 0; user < 4; ++user) {
        (void)model.best_single_change(crowded, user);
      }
    } catch (const std::exception& error) {
      verdict = std::string("fail (") + error.what() + ")";
    }
    std::cout << "probe.dcf_crowded_scan: " << verdict << '\n';
  }
  {
    // The 65536-user base cell should converge at the default budget.
    SweepSpec spec;
    spec.users = {65536};
    spec.channels = {12};
    spec.radios = {3};
    spec.base_seed = seed;
    AggregatingSink aggregate;
    run_session(SweepPlan::build(spec), aggregate);
    const CellResult& cell = aggregate.result().cells.at(0);
    std::ostringstream verdict;
    if (cell.converged == cell.runs) {
      verdict << "pass";
    } else {
      verdict << "fail (converged " << cell.converged << "/" << cell.runs
              << " after " << cell.activations.mean()
              << " activations at max_activations=" << spec.max_activations
              << ")";
    }
    std::cout << "probe.default_budget_65536: " << verdict.str() << '\n';
  }
}

// ------------------------------------------------------------ metrics --

struct MetricValue {
  std::string name;
  double value = 0.0;
  std::string unit;
};

std::string json_line(bool correct, std::size_t attempted, std::size_t failed,
                      const std::vector<MetricValue>& metrics) {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double value = std::isfinite(metrics[i].value) ? metrics[i].value
                                                         : 0.0;
    char number[40];
    std::snprintf(number, sizeof number, "%.17g", value);
    out << (i ? ", " : "") << '"' << metrics[i].name << "\": {\"value\": "
        << number << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  out << "}}";
  return out.str();
}

void print_metrics(const std::vector<MetricValue>& metrics) {
  for (const MetricValue& metric : metrics) {
    std::cout << "metric " << metric.name << " = " << metric.value << ' '
              << metric.unit << '\n';
  }
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// ------------------------------------------------------- untraced mode --

int run_untraced(const Options& options, const Workload& workload) {
  // On a shared 4-vCPU VM the host's speed drifted by up to 1.8x within a
  // minute, so every figure averages over the whole window instead of
  // picking one sweep: wall_s is the mean sweep and runs_per_s the runs
  // over the summed execution phases. Set-up is timed on its own, in sessions stopped at
  // begin(): after each sweep a burst of at least kBurstSamples takes
  // kSetupShare of that sweep's wall time, and setup_s is the mean of the
  // burst medians, so a burst's cold first sample does not count.
  constexpr double kSetupShare = 0.1;
  constexpr std::size_t kBurstSamples = 8;
  std::vector<double> burst_medians;
  std::size_t setup_samples = 0;
  // One discarded set-up warms the allocator before the first sweep.
  setup_only(workload);

  double wall_sum_s = 0.0;
  double exec_sum_s = 0.0;
  std::size_t sweeps = 0;
  std::vector<std::string> digests;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  SweepResult last;
  double rss = 0.0;
  const Clock::time_point start = Clock::now();
  do {
    DigestStream aggregate_out;
    DigestStream records_out;
    SweepTiming timing = timed_sweep(workload, aggregate_out,
                                     options.records ? &records_out : nullptr);
    std::cout << "sweep " << sweeps << ": wall " << timing.wall_s
              << " s, set-up " << timing.setup_s << " s, execution "
              << timing.exec_s << " s\n";
    ++sweeps;
    wall_sum_s += timing.wall_s;
    exec_sum_s += timing.exec_s;
    attempted += timing.runs;
    failed += failed_runs(timing.result);
    std::string witness = aggregate_out.witness();
    if (options.records) witness += "/" + records_out.witness();
    digests.push_back(witness);
    last = std::move(timing.result);
    // Peak memory of one set-up and one sweep in a fresh process: later
    // peaks would depend on how the timing interleaved set-up samples.
    if (sweeps == 1) rss = peak_rss_mb();

    std::vector<double> burst;
    const Clock::time_point burst_start = Clock::now();
    while (burst.size() < kBurstSamples ||
           seconds_between(burst_start, Clock::now()) <
               kSetupShare * timing.wall_s) {
      burst.push_back(setup_only(workload));
    }
    setup_samples += burst.size();
    burst_medians.push_back(median(std::move(burst)));
  } while (seconds_between(start, Clock::now()) < options.seconds);

  std::cout << "sweeps " << sweeps << ", set-up samples " << setup_samples
            << " in " << burst_medians.size() << " bursts\n";
  std::cout << "digest " << options.workload << " " << digests.front()
            << '\n';
  Checks checks;
  checks.expect(std::all_of(digests.begin(), digests.end(),
                            [&](const std::string& d) {
                              return d == digests.front();
                            }),
                "every sweep of the run wrote the same bytes");
  const std::string json = sweep_to_json(last);
  checks.expect(sweep_to_json(sweep_from_json(json)) == json,
                "sweep_from_json(sweep_to_json(x)) is a fixed point");
  if (options.shard_check) {
    double merge_s = 0.0;
    checks.expect(sweep_to_json(sharded_result(workload, &merge_s)) == json,
                  "3-shard sessions + merge_sweep_results == one process");
  }
  std::cout << "failed_frac = "
            << ratio(static_cast<double>(failed),
                     static_cast<double>(attempted))
            << " ratio (" << failed << " of " << attempted << " runs)\n";

  const std::vector<MetricValue> metrics = {
      {"wall_s", wall_sum_s / static_cast<double>(sweeps), "s"},
      {"setup_s", mean(burst_medians), "s"},
      {"runs_per_s", static_cast<double>(attempted) / exec_sum_s, "runs/s"},
      {"peak_rss_mb", rss, "MB"},
  };
  print_metrics(metrics);
  std::cout << json_line(checks.ok(), attempted, failed, metrics)
            << std::endl;
  return checks.ok() ? 0 : 1;
}

// --------------------------------------------------------- traced mode --

/// Which library layer each span name belongs to (for the summary).
std::string layer_of(const std::string& name) {
  const auto starts = [&](const char* prefix) {
    return name.rfind(prefix, 0) == 0;
  };
  if (starts("plan.") || starts("session.")) return "engine/session";
  if (starts("model.")) return "engine/scenario";
  if (name == "seed") return "engine/sweep (seeds)";
  if (name == "start") return "core/alloc";
  if (starts("dynamics.")) return "core/dynamics";
  if (name == "columns") return "core/game_model (columns)";
  if (starts("metric.")) return "core/analysis/metrics";
  if (starts("sim.")) return "engine/sim_tier";
  if (starts("sink.")) return "engine/sinks";
  if (starts("io.")) return "engine/sweep_io";
  return "other";
}

void print_summary(const TraceSummary& summary) {
  std::map<std::string, double> layers;
  for (const auto& [name, totals] : summary.by_name) {
    layers[layer_of(name)] += totals.self_s;
  }
  layers["(unattributed)"] = summary.unattributed_s;
  std::vector<std::pair<std::string, double>> sorted(layers.begin(),
                                                     layers.end());
  std::sort(sorted.begin(), sorted.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  std::cout << "per-layer self time (share of " << summary.thread_s
            << " s traced thread time, " << summary.spans << " spans):\n";
  for (const auto& [layer, self] : sorted) {
    char line[128];
    std::snprintf(line, sizeof line, "  %-28s %10.4f s %6.2f%%\n",
                  layer.c_str(), self, 100.0 * ratio(self, summary.thread_s));
    std::cout << line;
  }
  for (const auto& [name, totals] : summary.by_name) {
    char line[128];
    std::snprintf(line, sizeof line, "    %-26s %10.4f s %6.2f%% x%zu\n",
                  name.c_str(), totals.self_s,
                  100.0 * ratio(totals.self_s, summary.thread_s),
                  totals.count);
    std::cout << line;
  }
}

int run_traced(const Options& options, const Workload& workload) {
  const std::string& dir = options.work_dir;
  run_probes(workload.spec.base_seed);

  Checks checks;
  // Untraced reference: the workload's own session, plus a record stream
  // so the traced records can be compared byte for byte. A discarded
  // first sweep takes the process's cold start off both timed sweeps.
  // Both runs write to memory, as the untraced mode writes to digests.
  {
    DigestStream discard_aggregate, discard_records;
    timed_sweep(workload, discard_aggregate, &discard_records);
  }
  std::ostringstream reference_aggregate, reference_records;
  const SweepTiming reference =
      timed_sweep(workload, reference_aggregate, &reference_records);

  Tracer tracer;
  std::ostringstream traced_aggregate, traced_records;
  const TracedSweep traced =
      traced_sweep(workload, tracer, traced_aggregate, traced_records);
  const TraceSummary summary = tracer.summarize();
  tracer.write_csv(dir + "/spans-" + options.workload + ".csv");

  const std::string aggregate_bytes = traced_aggregate.str();
  const std::string record_bytes = traced_records.str();
  checks.expect(record_bytes == reference_records.str(),
                "traced records == untraced records");
  checks.expect(aggregate_bytes == reference_aggregate.str(),
                "traced aggregate == untraced aggregate");
  std::cout << "digest " << options.workload
            << " aggregate=" << digest(aggregate_bytes)
            << " records=" << digest(record_bytes) << '\n';

  // sweep_io: parse back the aggregate's JSON form.
  const std::string json = sweep_to_json(traced.result);
  const Clock::time_point parse0 = Clock::now();
  const SweepResult parsed = sweep_from_json(json);
  const double parse_s = seconds_between(parse0, Clock::now());
  checks.expect(sweep_to_json(parsed) == json,
                "sweep_from_json(sweep_to_json(x)) is a fixed point");

  double merge_s = 0.0;
  double farm_wall_s = 0.0;
  double farm_launches = 0.0;
  double farm_overhead_s = 0.0;
  if (options.shard_check) {
    checks.expect(sweep_to_json(sharded_result(workload, &merge_s)) == json,
                  "3-shard sessions + merge_sweep_results == one process");
    FarmSpec farm;
    farm.cli_path = options.mrca_path;
    farm.dir = dir + "/farm";
    farm.sweep_args = workload.sweep_args;
    farm.shards = 3;
    farm.records_path = dir + "/farm.jsonl";
    fs::remove_all(farm.dir);
    std::ostringstream farm_log;
    const Clock::time_point farm0 = Clock::now();
    const FarmResult farmed =
        run_farm(farm, SweepPlan::build(workload.spec), &farm_log);
    farm_wall_s = seconds_between(farm0, Clock::now());
    farm_launches = static_cast<double>(farmed.launches);
    farm_overhead_s = farm_wall_s - reference.wall_s;
    checks.expect(sweep_to_json(farmed.merged) == json,
                  "3-shard run_farm == one process");
    checks.expect(read_file(farm.records_path) == record_bytes,
                  "3-shard run_farm records == one process");
    fs::remove_all(farm.dir);
  }

  const SweepSpec& spec = workload.spec;
  const SweepResult& result = traced.result;
  const auto self = [&](const std::string& name) {
    const auto it = summary.by_name.find(name);
    return it == summary.by_name.end() ? 0.0 : it->second.self_s;
  };
  const auto total = [&](const std::string& name) {
    const auto it = summary.by_name.find(name);
    return it == summary.by_name.end() ? 0.0 : it->second.total_s;
  };
  const auto count = [&](const std::string& name) {
    const auto it = summary.by_name.find(name);
    return it == summary.by_name.end()
               ? 0.0
               : static_cast<double>(it->second.count);
  };

  std::vector<MetricValue> metrics = {
      {"plan.build_s", total("plan.build"), "s"},
      {"plan.cells", static_cast<double>(result.cells_total), "count"},
      {"model.build_s", total("model.build") + total("model.rate_table"),
       "s"},
      {"model.builds", count("model.build"), "count"},
      {"model.rate_tables", count("model.rate_table"), "count"},
      {"start.self_s", self("start"), "s"},
      {"start.calls", count("start"), "count"},
  };
  for (const DynamicsEngine& engine : dynamics_engines()) {
    double activations = 0.0, improving = 0.0, skips = 0.0, touches = 0.0;
    for (const CellResult& cell : result.cells) {
      if (cell.cell.dynamics.kind != engine.kind) continue;
      activations += cell.activations.sum();
      improving += cell.improving_steps.sum();
      skips += cell.scan_skips.sum();
      touches += cell.reprice_touches.sum();
    }
    const std::string prefix = "dynamics." + engine.name;
    const double busy = self(prefix);
    metrics.push_back({prefix + ".self_s", busy, "s"});
    metrics.push_back(
        {prefix + ".activations_per_s", ratio(activations, busy), "1/s"});
    metrics.push_back(
        {prefix + ".improving_ratio", ratio(improving, activations),
         "ratio"});
    if (engine.kind == DynamicsSpec::Kind::kBestResponse) {
      metrics.push_back(
          {prefix + ".scan_skip_ratio", ratio(skips, activations), "ratio"});
      metrics.push_back({prefix + ".reprice_per_move",
                         ratio(touches, improving), "touches/move"});
    }
  }
  metrics.push_back({"columns.self_s", self("columns"), "s"});
  const std::vector<std::string> metric_names = {
      "nash",        "poa",         "welfare_eff",      "convergence",
      "distributed", "regret",      "occupancy_entropy"};
  for (const std::string& name : metric_names) {
    metrics.push_back({"metric." + name + ".self_s", self("metric." + name),
                       "s"});
  }
  const auto column_mean = [&](const std::string& column) {
    const auto& columns = result.metric_columns;
    const auto it = std::find(columns.begin(), columns.end(), column);
    if (it == columns.end()) return 0.0;
    const std::size_t m = static_cast<std::size_t>(it - columns.begin());
    double sum = 0.0, n = 0.0;
    for (const CellResult& cell : result.cells) {
      sum += cell.metric_stats[m].sum();
      n += static_cast<double>(cell.metric_stats[m].count());
    }
    return ratio(sum, n);
  };
  metrics.push_back({"metric.distributed.converged_frac",
                     column_mean("dist_converged"), "ratio"});
  metrics.push_back({"metric.distributed.rounds_mean",
                     column_mean("dist_rounds"), "rounds"});
  double replays = 0.0;
  for (const CellResult& cell : result.cells) {
    replays += static_cast<double>(cell.sim_runs);
  }
  const double sim_seconds = spec.sim_tier ? spec.sim_tier->duration_s : 0.0;
  metrics.push_back({"sim.analytic_s", self("sim.analytic"), "s"});
  metrics.push_back({"sim.replay_s", self("sim.replay"), "s"});
  metrics.push_back({"sim.replays", replays, "count"});
  metrics.push_back({"sim.sim_s_per_wall_s",
                     ratio(replays * sim_seconds, self("sim.replay")), "s/s"});
  metrics.push_back({"sink.aggregate.self_s", self("sink.aggregate"), "s"});
  metrics.push_back({"sink.records.self_s", self("sink.records"), "s"});
  metrics.push_back({"sink.records.bytes",
                     static_cast<double>(record_bytes.size()), "B"});
  metrics.push_back({"session.max_buffered",
                     static_cast<double>(reference.max_buffered), "count"});
  // Computed, not traced: worker time the untraced session had, minus
  // the busy time the traced tasks account for.
  metrics.push_back(
      {"session.wait_s",
       static_cast<double>(reference.workers) * reference.exec_s -
           summary.task_s,
       "s"});
  metrics.push_back({"io.write_s", total("io.write"), "s"});
  metrics.push_back({"io.bytes", static_cast<double>(aggregate_bytes.size()),
                     "B"});
  metrics.push_back({"io.parse_s", parse_s, "s"});
  metrics.push_back({"merge.s", merge_s, "s"});
  metrics.push_back({"farm.wall_s", farm_wall_s, "s"});
  metrics.push_back({"farm.launches", farm_launches, "count"});
  metrics.push_back({"farm.overhead_s", farm_overhead_s, "s"});
  metrics.push_back({"trace.unattributed_frac",
                     ratio(summary.unattributed_s, summary.thread_s),
                     "ratio"});
  metrics.push_back({"trace.overhead_frac",
                     ratio(traced.wall_s - reference.wall_s,
                           reference.wall_s),
                     "ratio"});

  print_summary(summary);
  std::cout << "traced wall " << traced.wall_s << " s, untraced wall "
            << reference.wall_s << " s\n";
  print_metrics(metrics);
  const std::size_t failed = failed_runs(result);
  std::cout << json_line(checks.ok(), reference.runs, failed, metrics)
            << std::endl;
  return checks.ok() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  std::cout << "context build_type=" << build_type
            << " compiler=" << PERFBENCH_COMPILER
            << " nproc=" << std::thread::hardware_concurrency() << '\n';
  if (build_type != "Release") {
    std::cerr << "perfbench: refusing to time a '" << build_type
              << "' build; configure with -DCMAKE_BUILD_TYPE=Release\n";
    return 3;
  }
  try {
    const Options options = parse_options(argc, argv);
    const Workload workload = parse_workload(options.sweep_flags);
    fs::create_directories(options.work_dir);
    return options.trace ? run_traced(options, workload)
                         : run_untraced(options, workload);
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << error.what() << '\n';
    return 2;
  }
}
