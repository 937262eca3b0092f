// Million-user scale benchmark for the response dynamics.
//
// Plain C++ with no google-benchmark dependency: it times whole dynamics
// runs itself and writes google-benchmark-shaped JSON through
// bench/harness.h, so the CI smoke job can run it on machines without the
// benchmark library installed.
//
// Each cell runs best-response dynamics from a seeded random start to
// convergence, once with dirty-channel pruning (the default engine path)
// and once without (the A/B baseline), verifies the two final allocations
// are IDENTICAL (StrategyMatrix::operator== plus exact welfare equality —
// pruning must be a pure no-op on the trajectory), and records wall/cpu
// time plus the operation-count witnesses (scan_skips, reprice_touches).
//
// Recorded trajectory (repo root):
//   ./build/bench_scale --json BENCH_scale.json
// CI smoke (reduced cell, same verification):
//   ./build/bench_scale --users 100000 --require-converged
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "harness.h"
#include "mrca.h"

namespace {

using namespace mrca;

struct Options {
  std::size_t users = 1000000;
  std::size_t channels = 12;
  RadioCount radios = 4;
  std::vector<std::string> scenarios = {"topology=ring:2", "base"};
  std::uint64_t seed = 42;
  std::size_t max_passes = 64;
  ResponseGranularity granularity = ResponseGranularity::kBestSingleMove;
  bool ab = true;                  // also run the unpruned baseline + verify
  bool require_converged = false;  // exit nonzero unless every run converges
  std::string json_path;           // empty = no JSON file
};

/// Splits a comma list, dropping empty items ("a,,b" -> {"a", "b"}).
std::vector<std::string> split_list(const std::string& list) {
  std::vector<std::string> items;
  std::size_t begin = 0;
  while (begin <= list.size()) {
    const std::size_t comma = list.find(',', begin);
    const std::size_t end = comma == std::string::npos ? list.size() : comma;
    if (end > begin) items.push_back(list.substr(begin, end - begin));
    if (comma == std::string::npos) break;
    begin = comma + 1;
  }
  return items;
}

[[noreturn]] void usage(int exit_code) {
  std::fprintf(
      exit_code == 0 ? stdout : stderr,
      "bench_scale: time response dynamics to convergence at scale,\n"
      "pruned vs unpruned, and verify the trajectories are identical.\n"
      "\n"
      "  --users N            cell size (default 1000000)\n"
      "  --channels C         channels (default 12)\n"
      "  --radios K           radios per user (default 4)\n"
      "  --scenarios LIST     comma list of scenario specs\n"
      "                       (default topology=ring:2,base)\n"
      "  --seed S             start-allocation seed (default 42)\n"
      "  --max-passes P       activation budget in round-robin passes\n"
      "                       (default 64)\n"
      "  --granularity G      best-single-move | best-response |\n"
      "                       random-improving (default best-single-move)\n"
      "  --no-ab              skip the unpruned baseline run\n"
      "  --require-converged  exit 1 unless every run converges\n"
      "  --json FILE          write google-benchmark-shaped JSON\n");
  std::exit(exit_code);
}

Options parse_options(int argc, char** argv) {
  Options options;
  const auto value = [&](int& i) -> const char* {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "bench_scale: %s needs a value\n", argv[i]);
      usage(2);
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") usage(0);
    if (arg == "--users") {
      options.users = std::strtoull(value(i), nullptr, 10);
    } else if (arg == "--channels") {
      options.channels = std::strtoull(value(i), nullptr, 10);
    } else if (arg == "--radios") {
      options.radios =
          static_cast<RadioCount>(std::strtol(value(i), nullptr, 10));
    } else if (arg == "--scenarios") {
      options.scenarios = split_list(value(i));
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value(i), nullptr, 10);
    } else if (arg == "--max-passes") {
      options.max_passes = std::strtoull(value(i), nullptr, 10);
    } else if (arg == "--granularity") {
      const std::string g = value(i);
      if (g == "best-single-move") {
        options.granularity = ResponseGranularity::kBestSingleMove;
      } else if (g == "best-response") {
        options.granularity = ResponseGranularity::kBestResponse;
      } else if (g == "random-improving") {
        options.granularity = ResponseGranularity::kRandomImprovingMove;
      } else {
        std::fprintf(stderr, "bench_scale: unknown granularity '%s'\n",
                     g.c_str());
        usage(2);
      }
    } else if (arg == "--no-ab") {
      options.ab = false;
    } else if (arg == "--require-converged") {
      options.require_converged = true;
    } else if (arg == "--json") {
      options.json_path = value(i);
    } else {
      std::fprintf(stderr, "bench_scale: unknown flag '%s'\n", arg.c_str());
      usage(2);
    }
  }
  if (options.users == 0 || options.channels == 0 || options.radios <= 0 ||
      options.scenarios.empty() || options.max_passes == 0) {
    std::fprintf(stderr, "bench_scale: invalid cell parameters\n");
    usage(2);
  }
  return options;
}

struct TimedRun {
  DynamicsResult result;
  double real_ms = 0.0;
  double cpu_ms = 0.0;
};

TimedRun run_cell(const GameModel& model, const StrategyMatrix& start,
                  const Options& options, bool pruned) {
  DynamicsOptions dynamics;
  dynamics.granularity = options.granularity;
  dynamics.order = ActivationOrder::kRoundRobin;
  dynamics.max_passes = options.max_passes;
  dynamics.use_incremental_cache = true;
  dynamics.use_dirty_channel_pruning = pruned;
  Rng rng(options.seed + 1);  // consumed only by random-improving play
  const bench::Stopwatch watch;
  DynamicsResult result = run_response_dynamics(model, start, dynamics, &rng);
  const double cpu_ms = watch.cpu_ms();
  return {std::move(result), watch.real_ms(), cpu_ms};
}

bench::Entry make_entry(std::string name, const TimedRun& run,
                        std::size_t users, double welfare) {
  const DynamicsResult& r = run.result;
  return {std::move(name),
          run.real_ms,
          run.cpu_ms,
          {{"users", static_cast<double>(users)},
           {"converged", r.converged ? 1.0 : 0.0},
           {"activations", static_cast<double>(r.activations)},
           {"improving_steps", static_cast<double>(r.improving_steps)},
           {"scan_skips", static_cast<double>(r.scan_skips)},
           {"reprice_touches", static_cast<double>(r.reprice_touches)},
           {"welfare", welfare}}};
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse_options(argc, argv);
  const auto base_rate = std::make_shared<PowerLawRate>(1.0, 1.0);
  std::vector<bench::Entry> entries;
  bool all_converged = true;
  bool all_identical = true;

  for (const std::string& scenario_text : options.scenarios) {
    const engine::ScenarioSpec scenario =
        engine::ScenarioSpec::parse(scenario_text);
    const GameModel model = scenario.make_model(
        options.users, options.channels, options.radios, base_rate);
    Rng start_rng(options.seed);
    const StrategyMatrix start = random_full_allocation(model, start_rng);
    const std::string name = "BM_ScaleDyn/" + scenario_text + "/users:" +
                             std::to_string(options.users);

    const TimedRun pruned = run_cell(model, start, options, /*pruned=*/true);
    const DynamicsResult& result = pruned.result;
    const double welfare = model.raw_welfare(result.final_state);
    entries.push_back(
        make_entry(name + "/pruned", pruned, options.users, welfare));
    all_converged = all_converged && result.converged;

    if (options.ab) {
      const TimedRun baseline =
          run_cell(model, start, options, /*pruned=*/false);
      const double baseline_welfare =
          model.raw_welfare(baseline.result.final_state);
      const bool identical =
          result.final_state == baseline.result.final_state &&
          welfare == baseline_welfare &&
          result.activations == baseline.result.activations &&
          result.improving_steps == baseline.result.improving_steps &&
          result.converged == baseline.result.converged;
      entries.back().counters.emplace_back("state_matches_unpruned",
                                           identical ? 1.0 : 0.0);
      all_identical = all_identical && identical;
      all_converged = all_converged && baseline.result.converged;
      entries.push_back(make_entry(name + "/unpruned", baseline,
                                   options.users, baseline_welfare));
      std::printf(
          "%-60s %10.1f ms  (unpruned %10.1f ms, %.2fx)  %s  %s\n",
          (name + "/pruned").c_str(), pruned.real_ms, baseline.real_ms,
          pruned.real_ms > 0.0 ? baseline.real_ms / pruned.real_ms : 0.0,
          result.converged ? "converged" : "BUDGET EXHAUSTED",
          identical ? "identical" : "*** TRAJECTORY MISMATCH ***");
    } else {
      std::printf("%-60s %10.1f ms  %s\n", (name + "/pruned").c_str(),
                  pruned.real_ms,
                  result.converged ? "converged" : "BUDGET EXHAUSTED");
    }
    std::printf(
        "  activations=%zu improving=%zu scan_skips=%zu "
        "reprice_touches=%zu welfare=%.12g\n",
        result.activations, result.improving_steps, result.scan_skips,
        result.reprice_touches, welfare);
  }

  if (!options.json_path.empty()) {
    bench::write_json(options.json_path, "bench_scale", entries);
  }
  if (!all_identical) {
    std::fprintf(stderr,
                 "bench_scale: pruned trajectory diverged from the unpruned "
                 "baseline\n");
    return 1;
  }
  if (options.require_converged && !all_converged) {
    std::fprintf(stderr,
                 "bench_scale: a run exhausted its activation budget\n");
    return 1;
  }
  return 0;
}
