// Dynamics-portfolio benchmark: every registered engine timed on the same
// cell, from the same seeded start.
//
// Like bench_scale this is plain C++ with no google-benchmark dependency:
// it times whole runs itself and writes google-benchmark-shaped JSON
// through bench/harness.h, so CI can smoke it without the benchmark
// library.
//
// Each engine runs from an identical random start at the default N=512
// cell and reports wall/cpu time, activations ("steps"), steps/second,
// steps-to-converge (= activations when the run converged, absent
// otherwise), improving steps and final welfare — the portfolio's
// throughput-vs-convergence trade-off in one table.
//
// Recorded trajectory (repo root):
//   ./build/bench_dynamics --json BENCH_dynamics.json
// CI smoke (reduced cell):
//   ./build/bench_dynamics --users 64 --require-converged
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness.h"
#include "mrca.h"

namespace {

using namespace mrca;

struct Options {
  std::size_t users = 512;
  std::size_t channels = 8;
  RadioCount radios = 2;
  // Temperatures and activation probabilities are tuned to the default
  // N=512 cell: utility gaps shrink as ~1/load^2, so log-linear must anneal
  // well below ~1e-6 to leave the diffusive regime, and the distributed
  // protocol needs p small enough that simultaneous movers stop colliding.
  std::vector<DynamicsSpec> engines = DynamicsSpec::parse_list(
      "best_response,log_linear:0.0001:0.000000001,trial_error:0.2,"
      "distributed:0.01");
  std::uint64_t seed = 42;
  std::size_t max_activations = 500000;
  bool require_converged = false;  // exit nonzero unless every run converges
  std::string json_path;           // empty = no JSON file
};

[[noreturn]] void usage(int exit_code) {
  std::fprintf(
      exit_code == 0 ? stdout : stderr,
      "bench_dynamics: time every dynamics engine on one cell from the\n"
      "same seeded start and record steps/sec and steps-to-converge.\n"
      "\n"
      "  --users N            cell size (default 512)\n"
      "  --channels C         channels (default 8)\n"
      "  --radios K           radios per user (default 2)\n"
      "  --engines LIST       comma list of DynamicsSpec strings\n"
      "                       (default best_response,\n"
      "                        log_linear:0.0001:0.000000001,\n"
      "                        trial_error:0.2,distributed:0.01)\n"
      "  --seed S             start-allocation seed (default 42)\n"
      "  --max-activations A  activation budget per run (default 500000)\n"
      "  --require-converged  exit 1 unless every run converges\n"
      "  --json FILE          write google-benchmark-shaped JSON\n");
  std::exit(exit_code);
}

Options parse_options(int argc, char** argv) {
  Options options;
  const auto value = [&](int& i) -> const char* {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "bench_dynamics: %s needs a value\n", argv[i]);
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
    } else if (arg == "--engines") {
      const char* list = value(i);
      try {
        options.engines = DynamicsSpec::parse_list(list);
      } catch (const std::invalid_argument& error) {
        std::fprintf(stderr, "bench_dynamics: %s\n", error.what());
        usage(2);
      }
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value(i), nullptr, 10);
    } else if (arg == "--max-activations") {
      options.max_activations = std::strtoull(value(i), nullptr, 10);
    } else if (arg == "--require-converged") {
      options.require_converged = true;
    } else if (arg == "--json") {
      options.json_path = value(i);
    } else {
      std::fprintf(stderr, "bench_dynamics: unknown flag '%s'\n",
                   arg.c_str());
      usage(2);
    }
  }
  if (options.users == 0 || options.channels == 0 || options.radios <= 0 ||
      options.engines.empty() || options.max_activations == 0) {
    std::fprintf(stderr, "bench_dynamics: invalid cell parameters\n");
    usage(2);
  }
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse_options(argc, argv);
  const auto base_rate = std::make_shared<PowerLawRate>(1.0, 1.0);
  const GameModel model = engine::ScenarioSpec{}.make_model(
      options.users, options.channels, options.radios, base_rate);
  Rng start_rng(options.seed);
  const StrategyMatrix start = random_full_allocation(model, start_rng);

  std::vector<bench::Entry> entries;
  bool all_converged = true;
  for (const DynamicsSpec& spec : options.engines) {
    DynamicsOptions dynamics;
    dynamics.max_activations = options.max_activations;
    Rng rng(options.seed * 0x9e3779b97f4a7c15ULL + 1);
    const bench::Stopwatch watch;
    const DynamicsResult result =
        run_dynamics(spec, model, start, dynamics, &rng);
    const double cpu_ms = watch.cpu_ms();
    const double real_ms = watch.real_ms();
    const auto steps = static_cast<double>(result.activations);
    const double steps_per_second =
        real_ms > 0.0 ? steps / (real_ms * 1e-3) : 0.0;

    entries.push_back(
        {"BM_Dynamics/" + spec.name() +
             "/users:" + std::to_string(options.users),
         real_ms,
         cpu_ms,
         {{"users", static_cast<double>(options.users)},
          {"converged", result.converged ? 1.0 : 0.0},
          {"activations", steps},
          {"improving_steps", static_cast<double>(result.improving_steps)},
          {"steps_per_second", steps_per_second},
          // -1 = budget exhausted before stability
          {"steps_to_converge", result.converged ? steps : -1.0},
          {"welfare", result.final_welfare}}});
    all_converged = all_converged && result.converged;

    std::printf("%-52s %10.1f ms  %9zu steps  %12.0f steps/s  %s\n",
                entries.back().name.c_str(), real_ms, result.activations,
                steps_per_second,
                result.converged ? "converged" : "BUDGET EXHAUSTED");
  }

  if (!options.json_path.empty()) {
    bench::write_json(options.json_path, "bench_dynamics", entries);
  }
  if (options.require_converged && !all_converged) {
    std::fprintf(stderr,
                 "bench_dynamics: a run exhausted its budget with "
                 "--require-converged set\n");
    return 1;
  }
  return 0;
}
