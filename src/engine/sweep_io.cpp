#include "engine/sweep_io.h"

#include <cmath>
#include <cstdio>
#include <iomanip>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/json.h"
#include "common/table.h"
#include "engine/session.h"

namespace mrca::engine {
namespace {

/// 17 significant digits round-trip any double exactly. Non-finite values
/// print as inf/nan (fine for CSV; the JSON writer uses json_number).
std::string full_precision(double value) {
  std::ostringstream out;
  out << std::setprecision(17) << value;
  return out.str();
}

void append_stats_json(std::ostringstream& out, const char* key,
                       const RunningStats& stats) {
  // `m2` (Welford's raw second moment) sits next to the derived stddev so
  // the document carries the aggregate's full merge state: sweep_from_json
  // restores it bit-for-bit and shard merges lose nothing to rounding.
  out << '"' << key << "\":{\"count\":" << stats.count()
      << ",\"mean\":" << json_number(stats.mean())
      << ",\"stddev\":" << json_number(stats.stddev())
      << ",\"m2\":" << json_number(stats.m2())
      << ",\"min\":" << json_number(stats.min())
      << ",\"max\":" << json_number(stats.max()) << '}';
}

}  // namespace

std::string json_escape(const std::string& text) {
  std::string escaped;
  escaped.reserve(text.size());
  for (const char ch : text) {
    switch (ch) {
      case '"': escaped += "\\\""; break;
      case '\\': escaped += "\\\\"; break;
      case '\b': escaped += "\\b"; break;
      case '\f': escaped += "\\f"; break;
      case '\n': escaped += "\\n"; break;
      case '\r': escaped += "\\r"; break;
      case '\t': escaped += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(ch)));
          escaped += buffer;
        } else {
          escaped += ch;
        }
    }
  }
  return escaped;
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  return full_precision(value);
}

SweepFormat parse_sweep_format(const std::string& text) {
  if (text == "table") return SweepFormat::kTable;
  if (text == "csv") return SweepFormat::kCsv;
  if (text == "json") return SweepFormat::kJson;
  throw std::invalid_argument("unknown sweep format '" + text + "'");
}

void write_cell_coordinates_json(std::ostream& out,
                                 const SweepSpec::Cell& cell) {
  out << ",\"users\":" << cell.users << ",\"channels\":" << cell.channels
      << ",\"radios\":" << cell.radios << ",\"rate\":\""
      << json_escape(cell.rate.name()) << "\",\"scenario\":\""
      << json_escape(cell.scenario.name()) << "\",\"dynamics\":\""
      << json_escape(cell.dynamics.name()) << "\",\"granularity\":\""
      << to_string(cell.granularity) << "\",\"order\":\""
      << to_string(cell.order) << "\",\"start\":\"" << to_string(cell.start)
      << '"';
}

namespace {

void append_csv_header(std::ostringstream& out, const char* stem,
                       unsigned extras) {
  out << ',' << stem << "_mean";
  if (extras & kCsvStddev) out << ',' << stem << "_stddev";
  if (extras & kCsvMin) out << ',' << stem << "_min";
  if (extras & kCsvMax) out << ',' << stem << "_max";
}

void append_csv_stats(std::ostringstream& out, double mean,
                      const RunningStats& stats, unsigned extras) {
  out << ',' << full_precision(mean);
  if (extras & kCsvStddev) out << ',' << full_precision(stats.stddev());
  if (extras & kCsvMin) out << ',' << full_precision(stats.min());
  if (extras & kCsvMax) out << ',' << full_precision(stats.max());
}

/// Mean of a stat whose samples can ALL be NaN-skipped (efficiency when the
/// optimum is unknown, a metric undefined on every run): an empty aggregate
/// prints nan, "no defined sample", never a fabricated 0.
double skippable_mean(const RunningStats& stats) {
  return stats.empty() ? std::numeric_limits<double>::quiet_NaN()
                       : stats.mean();
}

}  // namespace

std::string sweep_to_csv(const SweepResult& result) {
  std::ostringstream out;
  out << "cell,users,channels,radios,rate,scenario,dynamics,granularity,"
         "order,start,runs,converged";
  for (const RunColumn& column : kRunColumns) {
    append_csv_header(out, column.csv_stem ? column.csv_stem : column.name,
                      column.csv_extras);
  }
  out << ",sim_runs";
  for (const SimColumn& column : kSimColumns) {
    append_csv_header(out, column.name, column.csv_extras);
  }
  // Dynamic metric block: <column>_mean and <column>_count per registered
  // metric column (the count exposes how many runs had a defined value).
  for (const std::string& column : result.metric_columns) {
    out << ',' << column << "_mean," << column << "_count";
  }
  out << '\n';
  for (const CellResult& cell : result.cells) {
    out << cell.cell.index << ',' << cell.cell.users << ','
        << cell.cell.channels << ',' << cell.cell.radios << ','
        << cell.cell.rate.name() << ',' << cell.cell.scenario.name() << ','
        << cell.cell.dynamics.name() << ','
        << to_string(cell.cell.granularity)
        << ',' << to_string(cell.cell.order) << ','
        << to_string(cell.cell.start) << ',' << cell.runs << ','
        << cell.converged;
    for (const RunColumn& column : kRunColumns) {
      const RunningStats& stats = cell.*column.stats;
      append_csv_stats(out, skippable_mean(stats), stats, column.csv_extras);
    }
    out << ',' << cell.sim_runs;
    for (const SimColumn& column : kSimColumns) {
      const RunningStats& stats = cell.*column.stats;
      append_csv_stats(out, stats.mean(), stats, column.csv_extras);
    }
    for (const RunningStats& stats : cell.metric_stats) {
      out << ',' << full_precision(skippable_mean(stats)) << ','
          << stats.count();
    }
    out << '\n';
  }
  return out.str();
}

std::string sweep_to_json(const SweepResult& result) {
  std::ostringstream out;
  out << "{\"spec\":{\"fingerprint\":\""
      << json_escape(result.spec_fingerprint)
      << "\",\"cells_total\":" << result.cells_total
      << ",\"cell_begin\":" << result.cell_begin
      << ",\"cell_end\":" << result.cell_end << ",\"metric_columns\":[";
  for (std::size_t m = 0; m < result.metric_columns.size(); ++m) {
    if (m) out << ',';
    out << '"' << json_escape(result.metric_columns[m]) << '"';
  }
  out << "]},\"total_runs\":" << result.total_runs
      << ",\"cells\":[";
  for (std::size_t i = 0; i < result.cells.size(); ++i) {
    const CellResult& cell = result.cells[i];
    if (i) out << ',';
    out << "{\"cell\":" << cell.cell.index;
    write_cell_coordinates_json(out, cell.cell);
    out << ",\"runs\":" << cell.runs << ",\"converged\":" << cell.converged;
    for (const RunColumn& column : kRunColumns) {
      out << ',';
      append_stats_json(out, column.name, cell.*column.stats);
    }
    out << ",\"sim_runs\":" << cell.sim_runs;
    for (const SimColumn& column : kSimColumns) {
      out << ',';
      append_stats_json(out, column.name, cell.*column.stats);
    }
    if (!result.metric_columns.empty()) {
      out << ",\"metrics\":{";
      for (std::size_t m = 0; m < result.metric_columns.size(); ++m) {
        if (m) out << ',';
        append_stats_json(out, result.metric_columns[m].c_str(),
                          cell.metric_stats[m]);
      }
      out << '}';
    }
    out << '}';
  }
  out << "]}";
  return out.str();
}

std::string sweep_to_table(const SweepResult& result) {
  bool has_sim = false;
  bool has_scenario = false;
  bool has_topology = false;
  bool has_dynamics = false;
  for (const CellResult& cell : result.cells) {
    has_sim |= cell.sim_runs > 0;
    has_scenario |= cell.cell.scenario.kind != ScenarioSpec::Kind::kBase;
    has_topology |=
        cell.cell.scenario.kind == ScenarioSpec::Kind::kTopology;
    has_dynamics |=
        cell.cell.dynamics.kind != DynamicsSpec::Kind::kBestResponse;
  }

  std::vector<std::string> header = {
      "N", "C", "k", "rate", "dyn", "order", "start", "conv",
      "activations", "welfare", "efficiency", "PoA", "fairness"};
  // The engine column appears only when a non-default engine is present
  // (like the scenario column), so plain best-response tables are
  // unchanged.
  if (has_dynamics) header.insert(header.begin() + 4, "engine");
  if (has_scenario) {
    header.insert(header.begin() + 4, "scenario");
    header.insert(header.end(), {"deployed", "spread", "bfair"});
  }
  if (has_topology) {
    header.insert(header.end(), {"color bound", "max deg", "geff"});
  }
  if (has_sim) {
    header.insert(header.end(),
                  {"sim Mbps", "sim gap", "sim fair", "sim imbal"});
  }
  header.insert(header.end(), result.metric_columns.begin(),
                result.metric_columns.end());
  Table table(header);
  for (const CellResult& cell : result.cells) {
    std::string converged = std::to_string(cell.converged);
    converged += '/';
    converged += std::to_string(cell.runs);
    std::vector<std::string> row = {
        Table::fmt(cell.cell.users), Table::fmt(cell.cell.channels),
        Table::fmt(cell.cell.radios), cell.cell.rate.name(),
        to_string(cell.cell.granularity), to_string(cell.cell.order),
        to_string(cell.cell.start), std::move(converged),
        Table::fmt(cell.activations.mean(), 1),
        Table::fmt(cell.welfare.mean(), 4),
        cell.efficiency.empty() ? "-" : Table::fmt(cell.efficiency.mean(), 4),
        cell.anarchy_ratio.empty() ? "-"
                                   : Table::fmt(cell.anarchy_ratio.mean(), 4),
        Table::fmt(cell.fairness.mean(), 4)};
    if (has_dynamics) row.insert(row.begin() + 4, cell.cell.dynamics.name());
    if (has_scenario) {
      row.insert(row.begin() + 4, cell.cell.scenario.name());
      row.push_back(Table::fmt(cell.deployed.mean(), 2));
      row.push_back(Table::fmt(cell.per_radio_spread.mean(), 4));
      row.push_back(Table::fmt(cell.budget_fairness.mean(), 4));
    }
    if (has_topology) {
      row.push_back(cell.coloring_bound.empty()
                        ? "-"
                        : Table::fmt(cell.coloring_bound.mean(), 4));
      row.push_back(cell.max_degree.empty()
                        ? "-"
                        : Table::fmt(cell.max_degree.mean(), 0));
      row.push_back(cell.graph_efficiency.empty()
                        ? "-"
                        : Table::fmt(cell.graph_efficiency.mean(), 4));
    }
    if (has_sim) {
      row.push_back(Table::fmt(cell.sim_total_bps.mean() / 1e6, 4));
      row.push_back(Table::fmt(cell.sim_gap.mean(), 4));
      row.push_back(Table::fmt(cell.sim_fairness.mean(), 4));
      row.push_back(Table::fmt(cell.sim_imbalance.mean(), 4));
    }
    for (const RunningStats& stats : cell.metric_stats) {
      row.push_back(stats.empty() ? "-" : Table::fmt(stats.mean(), 4));
    }
    table.add_row(row);
  }
  return table.to_ascii();
}

namespace {

// The DOM and parser live in common/json (shared with the farm's progress
// and manifest readers); the typed accessors below keep sweep_from_json's
// error-message contract ("sweep_from_json: ..." naming the field).
std::size_t as_count(const JsonValue& value, const char* what) {
  if (value.kind != JsonValue::Kind::kNumber || value.number < 0.0 ||
      value.number != std::floor(value.number)) {
    throw std::invalid_argument("sweep_from_json: '" + std::string(what) +
                                "' is not a non-negative integer");
  }
  return static_cast<std::size_t>(value.number);
}

/// null round-trips back to the NaN the writer serialized it from.
double as_double(const JsonValue& value, const char* what) {
  if (value.kind == JsonValue::Kind::kNull) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  if (value.kind != JsonValue::Kind::kNumber) {
    throw std::invalid_argument("sweep_from_json: '" + std::string(what) +
                                "' is not a number");
  }
  return value.number;
}

const std::string& as_string(const JsonValue& value, const char* what) {
  if (value.kind != JsonValue::Kind::kString) {
    throw std::invalid_argument("sweep_from_json: '" + std::string(what) +
                                "' is not a string");
  }
  return value.string;
}

const std::vector<JsonValue>& as_array(const JsonValue& value,
                                       const char* what) {
  if (value.kind != JsonValue::Kind::kArray) {
    throw std::invalid_argument("sweep_from_json: '" + std::string(what) +
                                "' is not an array");
  }
  return value.array;
}

RunningStats stats_from_json(const JsonValue& value, const char* what) {
  if (value.kind != JsonValue::Kind::kObject) {
    throw std::invalid_argument("sweep_from_json: stats '" +
                                std::string(what) + "' is not an object");
  }
  return RunningStats::from_state(
      as_count(value.at("count"), what), as_double(value.at("mean"), what),
      as_double(value.at("m2"), what), as_double(value.at("min"), what),
      as_double(value.at("max"), what));
}

}  // namespace

SweepResult sweep_from_json(const std::string& text) {
  const JsonValue root = JsonValue::parse(text);
  if (root.kind != JsonValue::Kind::kObject) {
    throw std::invalid_argument("sweep_from_json: root is not an object");
  }
  SweepResult result;
  const JsonValue& spec = root.at("spec");
  result.spec_fingerprint = as_string(spec.at("fingerprint"), "fingerprint");
  result.cells_total = as_count(spec.at("cells_total"), "cells_total");
  result.cell_begin = as_count(spec.at("cell_begin"), "cell_begin");
  result.cell_end = as_count(spec.at("cell_end"), "cell_end");
  for (const JsonValue& column :
       as_array(spec.at("metric_columns"), "metric_columns")) {
    result.metric_columns.push_back(as_string(column, "metric_columns"));
  }
  result.total_runs = as_count(root.at("total_runs"), "total_runs");

  for (const JsonValue& cell_json : as_array(root.at("cells"), "cells")) {
    if (cell_json.kind != JsonValue::Kind::kObject) {
      throw std::invalid_argument(
          "sweep_from_json: 'cells' entry is not an object");
    }
    CellResult cell;
    cell.cell.index = as_count(cell_json.at("cell"), "cell");
    cell.cell.users = as_count(cell_json.at("users"), "users");
    cell.cell.channels = as_count(cell_json.at("channels"), "channels");
    cell.cell.radios = static_cast<RadioCount>(
        as_count(cell_json.at("radios"), "radios"));
    cell.cell.rate = RateSpec::parse(as_string(cell_json.at("rate"), "rate"));
    cell.cell.scenario =
        ScenarioSpec::parse(as_string(cell_json.at("scenario"), "scenario"));
    cell.cell.dynamics =
        DynamicsSpec::parse(as_string(cell_json.at("dynamics"), "dynamics"));
    cell.cell.granularity = parse_response_granularity(
        as_string(cell_json.at("granularity"), "granularity"));
    cell.cell.order =
        parse_activation_order(as_string(cell_json.at("order"), "order"));
    cell.cell.start =
        parse_sweep_start(as_string(cell_json.at("start"), "start"));
    cell.runs = as_count(cell_json.at("runs"), "runs");
    cell.converged = as_count(cell_json.at("converged"), "converged");
    for (const RunColumn& column : kRunColumns) {
      cell.*column.stats =
          stats_from_json(cell_json.at(column.name), column.name);
    }
    cell.sim_runs = as_count(cell_json.at("sim_runs"), "sim_runs");
    for (const SimColumn& column : kSimColumns) {
      cell.*column.stats =
          stats_from_json(cell_json.at(column.name), column.name);
    }
    if (!result.metric_columns.empty()) {
      const JsonValue& metrics = cell_json.at("metrics");
      for (const std::string& column : result.metric_columns) {
        cell.metric_stats.push_back(
            stats_from_json(metrics.at(column), column.c_str()));
      }
    }
    result.cells.push_back(std::move(cell));
  }
  return result;
}

void write_sweep(std::ostream& out, const SweepResult& result,
                 SweepFormat format) {
  switch (format) {
    case SweepFormat::kTable:
      out << sweep_to_table(result);
      return;
    case SweepFormat::kCsv:
      out << sweep_to_csv(result);
      return;
    case SweepFormat::kJson:
      out << sweep_to_json(result) << '\n';
      return;
  }
  throw std::logic_error("write_sweep: unknown format");
}

}  // namespace mrca::engine
