#include "traced_sweep.h"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <limits>
#include <map>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <utility>

#include "common/rng.h"
#include "common/stats.h"
#include "core/alloc/random_alloc.h"
#include "core/alloc/sequential.h"
#include "core/alloc/utility_cache.h"
#include "core/analysis/efficiency.h"
#include "core/analysis/metrics.h"
#include "core/dynamics/engine.h"
#include "engine/session.h"
#include "engine/sinks.h"
#include "engine/sweep_io.h"
#include "engine/thread_pool.h"

namespace perfbench {
namespace {

using namespace mrca;
using namespace mrca::engine;
using Span = Tracer::Span;

/// Interned span names, fixed before any worker starts.
struct Names {
  explicit Names(Tracer& tracer, const SweepSpec& spec)
      : root(tracer.intern(Tracer::kRoot)),
        parallel(tracer.intern(Tracer::kParallel)),
        task(tracer.intern(Tracer::kTask)),
        plan(tracer.intern("plan.build")),
        rate_table(tracer.intern("model.rate_table")),
        model(tracer.intern("model.build")),
        wait(tracer.intern("session.wait")),
        deliver(tracer.intern("session.deliver")),
        seed(tracer.intern("seed")),
        start(tracer.intern("start")),
        columns(tracer.intern("columns")),
        sim_analytic(tracer.intern("sim.analytic")),
        sim_replay(tracer.intern("sim.replay")),
        aggregate(tracer.intern("sink.aggregate")),
        records(tracer.intern("sink.records")),
        io_write(tracer.intern("io.write")) {
    for (const DynamicsEngine& engine : dynamics_engines()) {
      dynamics.push_back(tracer.intern("dynamics." + engine.name));
    }
    for (const Metric& metric : spec.metrics.metrics()) {
      metrics.push_back(tracer.intern("metric." + metric.name));
    }
  }

  std::uint32_t root, parallel, task, plan, rate_table, model, wait, deliver,
      seed, start, columns, sim_analytic, sim_replay, aggregate, records,
      io_write;
  std::vector<std::uint32_t> dynamics;  // by DynamicsSpec::Kind
  std::vector<std::uint32_t> metrics;   // by position in the MetricSet
};

StrategyMatrix make_start(const GameModel& model, SweepStart start,
                          Rng& rng) {
  switch (start) {
    case SweepStart::kEmpty:
      return model.empty_strategy();
    case SweepStart::kRandomFull:
      return random_full_allocation(model, rng);
    case SweepStart::kRandomPartial:
      return random_partial_allocation(model, rng);
    case SweepStart::kSequentialNe: {
      StrategyMatrix strategies = model.empty_strategy();
      UtilityCache cache(model, strategies);
      for (UserId user = 0; user < model.config().num_users; ++user) {
        allocate_user_sequentially(model, strategies, user,
                                   TieBreak::kLowestIndex, &rng, &cache);
      }
      return strategies;
    }
  }
  throw std::logic_error("traced_sweep: unknown start kind");
}

/// One task, through the same calls and seeds as run_session's run_one.
RunRecord run_one(Tracer& tracer, const Names& names, const SweepSpec& spec,
                  const SweepSpec::Cell& cell, const GameModel& model,
                  std::size_t replicate,
                  const CellMetricCache* metric_cache) {
  RunRecord record;
  record.cell = cell;
  record.replicate = replicate;
  std::uint64_t dynamics_seed = 0;
  std::uint64_t metric_seed = 0;
  std::vector<std::uint64_t> sim_seeds;
  {
    Span span(tracer, names.seed);
    record.seed = derive_run_seed(spec.base_seed, cell.index, replicate);
    dynamics_seed =
        derive_dynamics_seed(spec.base_seed, cell.index, replicate);
    metric_seed = derive_metric_seed(spec.base_seed, cell.index, replicate);
    if (spec.sim_tier) {
      for (std::size_t s = 0; s < spec.sim_tier->replicates; ++s) {
        sim_seeds.push_back(
            derive_sim_seed(spec.base_seed, cell.index, replicate, s));
      }
    }
  }
  Rng rng(record.seed);
  const StrategyMatrix start = [&] {
    Span span(tracer, names.start);
    return make_start(model, cell.start, rng);
  }();

  DynamicsOptions options;
  options.granularity = cell.granularity;
  options.order = cell.order;
  options.max_activations = spec.max_activations;
  options.tolerance = spec.tolerance;
  options.record_welfare_trace = spec.metrics.needs_welfare_trace();
  Rng dynamics_rng(dynamics_seed);
  Rng* engine_rng = cell.dynamics.kind == DynamicsSpec::Kind::kBestResponse
                        ? &rng
                        : &dynamics_rng;
  const DynamicsResult result = [&] {
    Span span(tracer,
              names.dynamics.at(static_cast<std::size_t>(cell.dynamics.kind)));
    return run_dynamics(cell.dynamics, model, start, options, engine_rng);
  }();

  {
    Span span(tracer, names.columns);
    constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
    record.converged = result.converged;
    record.activations = static_cast<double>(result.activations);
    record.improving_steps = static_cast<double>(result.improving_steps);
    record.scan_skips = static_cast<double>(result.scan_skips);
    record.reprice_touches = static_cast<double>(result.reprice_touches);
    record.welfare = model.welfare(result.final_state);
    const double optimal = model.optimal_welfare();
    record.efficiency = optimal > 0.0 ? record.welfare / optimal
                                      : (std::isnan(optimal) ? kNaN : 0.0);
    record.anarchy_ratio =
        record.welfare > 0.0 ? optimal / record.welfare : kNaN;
    record.fairness = jain_fairness(model.utilities(result.final_state));
    record.load_imbalance =
        static_cast<double>(load_imbalance(result.final_state));
    record.deployed =
        static_cast<double>(result.final_state.total_deployed());
    record.per_radio_spread = model.per_radio_spread(result.final_state);
    record.budget_fairness = model.budget_fairness(result.final_state);
    const double coloring = model.coloring_bound();
    record.coloring_bound = coloring;
    record.max_degree =
        model.topology()
            ? static_cast<double>(model.topology()->max_degree())
            : kNaN;
    record.graph_efficiency =
        coloring > 0.0 ? record.welfare / coloring : kNaN;
  }

  if (!spec.metrics.empty()) {
    MetricContext context{model, start, result, metric_seed};
    context.cell_cache = metric_cache;
    record.metric_values.reserve(spec.metrics.num_columns());
    const std::vector<Metric>& metrics = spec.metrics.metrics();
    for (std::size_t m = 0; m < metrics.size(); ++m) {
      std::vector<double> values;
      {
        Span span(tracer, names.metrics[m]);
        values = metrics[m].compute(context);
      }
      if (values.size() != metrics[m].columns.size()) {
        throw std::logic_error("traced_sweep: metric '" + metrics[m].name +
                               "' returned the wrong arity");
      }
      record.metric_values.insert(record.metric_values.end(), values.begin(),
                                  values.end());
    }
  }

  if (spec.sim_tier) {
    std::vector<double> analytic;
    {
      Span span(tracer, names.sim_analytic);
      analytic = analytic_per_user_bps(result.final_state, *spec.sim_tier);
    }
    record.sim.reserve(sim_seeds.size());
    for (const std::uint64_t sim_seed : sim_seeds) {
      Span span(tracer, names.sim_replay);
      record.sim.push_back(replay_strategy(result.final_state, *spec.sim_tier,
                                           sim_seed, analytic));
    }
  }
  return record;
}

/// In-order delivery with the session's reorder window: records park until
/// every earlier task is delivered; the worker that completes the frontier
/// drains, running the sinks outside the lock.
class Delivery {
 public:
  Delivery(Tracer& tracer, const Names& names,
           std::vector<std::pair<RunSink*, std::uint32_t>> sinks,
           std::size_t window)
      : tracer_(tracer), names_(names), sinks_(std::move(sinks)),
        window_(window) {}

  void await_turn(std::size_t task) {
    Span span(tracer_, names_.wait);
    std::unique_lock<std::mutex> lock(mutex_);
    ready_.wait(lock, [&] { return aborted_ || task < next_ + window_; });
  }

  void deliver(std::size_t task, RunRecord record) {
    Span span(tracer_, names_.deliver);
    std::unique_lock<std::mutex> lock(mutex_);
    if (aborted_) return;
    if (task != next_ || draining_) {
      pending_.emplace(task, std::move(record));
      return;
    }
    draining_ = true;
    std::vector<RunRecord> batch;
    batch.push_back(std::move(record));
    ++next_;
    for (;;) {
      for (auto it = pending_.begin();
           it != pending_.end() && it->first == next_;
           it = pending_.erase(it), ++next_) {
        batch.push_back(std::move(it->second));
      }
      ready_.notify_all();
      lock.unlock();
      for (const RunRecord& ready : batch) {
        for (const auto& [sink, name] : sinks_) {
          Span sink_span(tracer_, name);
          sink->consume(ready);
        }
      }
      batch.clear();
      lock.lock();
      if (aborted_ || pending_.empty() || pending_.begin()->first != next_) {
        break;
      }
    }
    draining_ = false;
  }

  void abort() {
    std::lock_guard<std::mutex> lock(mutex_);
    aborted_ = true;
    ready_.notify_all();
  }

 private:
  Tracer& tracer_;
  const Names& names_;
  const std::vector<std::pair<RunSink*, std::uint32_t>> sinks_;
  const std::size_t window_;
  std::mutex mutex_;
  std::condition_variable ready_;
  std::map<std::size_t, RunRecord> pending_;
  std::size_t next_ = 0;
  bool aborted_ = false;
  bool draining_ = false;
};

}  // namespace

TracedSweep traced_sweep(const Workload& workload, Tracer& tracer,
                         std::ostream& aggregate_out,
                         std::ostream& records_out) {
  const Names names(tracer, workload.spec);
  TracedSweep traced;
  const Clock::time_point t0 = Clock::now();
  {
    Span root(tracer, names.root);
    std::optional<SweepPlan> maybe_plan;
    {
      Span span(tracer, names.plan);
      maybe_plan.emplace(SweepPlan::build(workload.spec));
    }
    const SweepPlan& plan = *maybe_plan;
    const SweepSpec& spec = plan.spec();
    const std::size_t num_cells = plan.num_cells();

    // Model construction as run_session does it: one rate table per
    // distinct (rate spec, maximum load), one GameModel per cell.
    std::map<std::pair<std::string, int>,
             std::shared_ptr<const RateFunction>>
        rate_cache;
    std::vector<GameModel> models;
    models.reserve(num_cells);
    for (std::size_t i = 0; i < num_cells; ++i) {
      const SweepSpec::Cell& cell = plan.cells()[plan.cell_begin() + i];
      const int max_load =
          cell.scenario.total_radios(cell.users, cell.channels, cell.radios);
      auto& cached = rate_cache[{cell.rate.name(), max_load}];
      if (!cached) {
        Span span(tracer, names.rate_table);
        cached = cell.rate.make(max_load);
      }
      Span span(tracer, names.model);
      models.push_back(cell.scenario.make_model(cell.users, cell.channels,
                                                cell.radios, cached));
    }
    std::vector<CellMetricCache> metric_caches(
        spec.metrics.empty() ? 0 : num_cells);

    AggregatingSink aggregate;
    RecordSink records(records_out);
    const std::vector<std::pair<RunSink*, std::uint32_t>> sinks = {
        {&aggregate, names.aggregate}, {&records, names.records}};
    for (const auto& [sink, name] : sinks) {
      Span span(tracer, name);
      sink->begin(plan);
    }

    const std::size_t window = std::max<std::size_t>(
        32, 4 * resolve_thread_count(workload.threads));
    Delivery delivery(tracer, names, sinks, window);
    const std::size_t replicates = spec.replicates;
    std::size_t workers = 1;
    {
      Span span(tracer, names.parallel);
      tracer.set_ambient_parent(tracer.current_span());
      workers = parallel_for(
          plan.num_runs(), workload.threads, [&](std::size_t task) {
            Span task_span(tracer, names.task,
                           static_cast<std::int64_t>(task));
            try {
              delivery.await_turn(task);
              const std::size_t local_cell = task / replicates;
              delivery.deliver(
                  task,
                  run_one(tracer, names, spec,
                          plan.cells()[plan.cell_begin() + local_cell],
                          models[local_cell], task % replicates,
                          metric_caches.empty()
                              ? nullptr
                              : &metric_caches[local_cell]));
            } catch (...) {
              delivery.abort();
              throw;
            }
          });
    }
    for (const auto& [sink, name] : sinks) {
      Span span(tracer, name);
      sink->finish();
    }
    if (!records_out.flush()) {
      throw std::runtime_error("failed writing records");
    }

    traced.result = std::move(aggregate).take_result();
    traced.result.threads_used = workers;
    Span span(tracer, names.io_write);
    write_sweep(aggregate_out, traced.result, workload.format);
    if (!aggregate_out.flush()) {
      throw std::runtime_error("failed writing the aggregate");
    }
  }
  traced.wall_s = seconds_between(t0, Clock::now());
  return traced;
}

}  // namespace perfbench
