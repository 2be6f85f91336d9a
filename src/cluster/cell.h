// One cluster cell, the pipeline every cluster experiment, bench cell
// and engine test runs: build a Cluster, point a ShardedClusterEngine at
// its devices, lower a chaos script (the attack is scripted chaos) onto
// the engine's epoch barriers, and record every request into an
// SloTracker focused on the attack window. A CellSpec describes it with
// the existing config types; a Cell owns the objects in lifetime order.
// Construction is separate from run(), so benches can time run() alone.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "cluster/engine.h"
#include "cluster/node.h"
#include "cluster/resilience/chaos.h"
#include "sim/trial_runner.h"

namespace deepnote::cluster {

struct CellSpec {
  ClusterConfig cluster;
  /// Routing, traffic and serving knobs; its detector is replaced by
  /// the cluster's.
  EngineConfig engine;
  /// Faults and attacks, lowered through make_chaos_schedule and
  /// chaos_actions.
  resilience::ChaosConfig chaos;
  /// make_chaos_schedule's base seed (index 0). A scripted-only chaos
  /// config ignores it.
  std::uint64_t chaos_seed = 0;
  /// SLO focus [focus_begin, focus_end): the attack window. Empty by
  /// default.
  sim::SimTime focus_begin = sim::SimTime::infinity();
  sim::SimTime focus_end = sim::SimTime::infinity();

  std::vector<resilience::ChaosEvent> schedule() const {
    return resilience::make_chaos_schedule(chaos, chaos_seed, 0);
  }
};

class Cell {
 public:
  /// Immovable, like its engine: the engine and the chaos actions point
  /// into the cluster.
  explicit Cell(CellSpec spec);

  /// The full traffic duration from t = 0. Call once.
  EngineReport run();

  Cluster& cluster() { return cluster_; }
  const SloTracker& slo() const { return slo_; }
  const ShardedClusterEngine& engine() const { return engine_; }

 private:
  Cluster cluster_;
  ShardedClusterEngine engine_;
  SloTracker slo_;
  std::vector<TimelineAction> actions_;
};

/// The spec of a grid family cell. `Config` is a family config
/// (ClusterExperimentConfig, OverloadExperimentConfig, ...); they share
/// these field names. Cluster, traffic and chaos are seeded with
/// trial_seed(cell_seed, 0 / 1 / 2); traffic lasts warmup + attack +
/// tail; when `distance_m` is set, `pods` are insonified over the attack
/// window [warmup, warmup + attack), which is the SLO focus either way.
template <typename Config>
CellSpec grid_cell_spec(const Config& config, PlacementPolicy placement,
                        std::uint64_t cell_seed, sim::Duration attack,
                        sim::Duration tail,
                        const std::vector<std::size_t>& pods,
                        std::optional<double> distance_m,
                        std::shared_ptr<const ZipfAliasSampler> zipf,
                        unsigned engine_jobs) {
  CellSpec spec;
  spec.cluster.scenario = config.scenario;
  spec.cluster.topology = config.topology;
  spec.cluster.seed = sim::trial_seed(cell_seed, 0);
  spec.engine.balancer = config.balancer;
  spec.engine.balancer.policy = placement;
  spec.engine.balancer.replication = config.replication;
  spec.engine.traffic = config.traffic;
  spec.engine.traffic.duration = config.warmup + attack + tail;
  spec.engine.traffic.seed = sim::trial_seed(cell_seed, 1);
  spec.engine.jobs = engine_jobs;
  spec.engine.zipf = std::move(zipf);
  spec.chaos.pulse_frequency_hz = config.frequency_hz;
  spec.chaos.pulse_spl_air_db = config.spl_air_db;
  spec.chaos_seed = sim::trial_seed(cell_seed, 2);
  spec.focus_begin = sim::SimTime::zero() + config.warmup;
  spec.focus_end = spec.focus_begin + attack;
  if (distance_m.has_value()) {
    resilience::script_pod_attack(spec.chaos, pods, *distance_m,
                                  spec.focus_begin, spec.focus_end);
  }
  return spec;
}

/// Fan a family's grid across the trial pool: point i runs as
/// `run_cell(grid[i], trial_seed(config.seed, i), zipf)`, every cell
/// sharing one alias table (it depends only on the keyspace and skew,
/// which grids never vary). Rows come back in grid order.
template <typename Config, typename Point, typename RunCell>
auto run_cell_grid(const Config& config, const std::vector<Point>& grid,
                   RunCell run_cell) {
  const auto zipf = std::make_shared<const ZipfAliasSampler>(
      config.traffic.keyspace, config.traffic.zipf_theta);
  using Row = decltype(run_cell(grid.front(), std::uint64_t{0}, zipf));
  return sim::run_trials<Row>(grid.size(), config.jobs, [&](std::size_t i) {
    return run_cell(grid[i], sim::trial_seed(config.seed, i), zipf);
  });
}

}  // namespace deepnote::cluster
