#include "spec_args.h"

#include <map>
#include <sstream>
#include <stdexcept>

#include "core/analysis/metrics.h"
#include "core/dynamics/engine.h"
#include "sim/network.h"

namespace perfbench {
namespace {

using namespace mrca;

std::vector<std::string> split(const std::string& text, char separator) {
  std::vector<std::string> items;
  std::istringstream stream(text);
  std::string item;
  while (std::getline(stream, item, separator)) items.push_back(item);
  return items;
}

std::size_t to_count(const std::string& flag, const std::string& text) {
  std::size_t used = 0;
  unsigned long long value = 0;
  try {
    value = std::stoull(text, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used == 0 || used != text.size()) {
    throw std::invalid_argument("bad value '" + text + "' for " + flag);
  }
  return static_cast<std::size_t>(value);
}

/// "4,8,16" or "lo:hi[:step]" items, as the CLI expands them.
std::vector<std::size_t> size_list(const std::string& flag,
                                   const std::string& text) {
  std::vector<std::size_t> values;
  for (const std::string& item : split(text, ',')) {
    const std::vector<std::string> parts = split(item, ':');
    if (parts.size() == 1) {
      values.push_back(to_count(flag, item));
      continue;
    }
    if (parts.size() > 3) {
      throw std::invalid_argument("bad range '" + item + "' for " + flag);
    }
    const std::size_t lo = to_count(flag, parts[0]);
    const std::size_t hi = to_count(flag, parts[1]);
    const std::size_t step = parts.size() == 3 ? to_count(flag, parts[2]) : 1;
    if (step == 0 || hi < lo) {
      throw std::invalid_argument("bad range '" + item + "' for " + flag);
    }
    for (std::size_t v = lo; v <= hi; v += step) values.push_back(v);
  }
  if (values.empty()) throw std::invalid_argument("empty list for " + flag);
  return values;
}

template <typename T>
std::vector<T> enum_list(const std::string& text,
                         T (*parse_one)(const std::string&)) {
  std::vector<T> values;
  for (const std::string& item : split(text, ',')) {
    values.push_back(parse_one(item));
  }
  return values;
}

engine::RateSpec parse_rate(const std::string& text) {
  return engine::RateSpec::parse(text);
}

}  // namespace

Workload parse_workload(const std::vector<std::string>& args) {
  // The CLI's defaults for every flag a workload may omit.
  std::map<std::string, std::string> flags = {
      {"--users", "4,8,16"},        {"--channels", "4,8"},
      {"--radios", "1,2"},          {"--rates", "tdma"},
      {"--scenario", "base"},       {"--dynamics", "best_response"},
      {"--granularity", "best"},    {"--order", "rr"},
      {"--start", "random"},        {"--metrics", ""},
      {"--replicates", "1"},        {"--threads", "1"},
      {"--max-activations", "100000"},
      {"--format", "table"},        {"--seed", "1"},
      {"--sim", ""},                {"--sim-seconds", "1"},
      {"--sim-replicates", "1"},
  };
  Workload workload;
  for (std::size_t i = 0; i < args.size(); i += 2) {
    const auto it = flags.find(args[i]);
    if (it == flags.end() || i + 1 >= args.size()) {
      throw std::invalid_argument("unsupported sweep flag '" + args[i] + "'");
    }
    it->second = args[i + 1];
    if (args[i] != "--format") {
      workload.sweep_args.push_back(args[i]);
      workload.sweep_args.push_back(args[i + 1]);
    }
  }

  engine::SweepSpec& spec = workload.spec;
  spec.users = size_list("--users", flags["--users"]);
  spec.channels = size_list("--channels", flags["--channels"]);
  spec.radios.clear();
  for (const std::size_t k : size_list("--radios", flags["--radios"])) {
    spec.radios.push_back(static_cast<RadioCount>(k));
  }
  spec.rates = enum_list(flags["--rates"], parse_rate);
  spec.scenarios = engine::ScenarioSpec::parse_list(flags["--scenario"]);
  spec.dynamics = DynamicsSpec::parse_list(flags["--dynamics"]);
  if (!flags["--metrics"].empty()) {
    spec.metrics = MetricSet::parse_list(flags["--metrics"]);
  }
  spec.granularities =
      enum_list(flags["--granularity"], engine::parse_response_granularity);
  spec.orders = enum_list(flags["--order"], engine::parse_activation_order);
  spec.starts = enum_list(flags["--start"], engine::parse_sweep_start);
  spec.replicates = to_count("--replicates", flags["--replicates"]);
  spec.base_seed = to_count("--seed", flags["--seed"]);
  spec.max_activations =
      to_count("--max-activations", flags["--max-activations"]);
  if (!flags["--sim"].empty()) {
    engine::SimTierSpec tier;
    tier.mac = sim::parse_mac_kind(flags["--sim"]);
    tier.duration_s = std::stod(flags["--sim-seconds"]);
    tier.replicates = to_count("--sim-replicates", flags["--sim-replicates"]);
    spec.sim_tier = tier;
  }
  workload.threads = to_count("--threads", flags["--threads"]);
  workload.format = engine::parse_sweep_format(flags["--format"]);
  return workload;
}

}  // namespace perfbench
