// The attacked fleet cell that bench_json and micro_benchmarks both time:
// `pods` x 5 bays, 3-way cross-pod replication over 20k objects, a
// 1M-key Zipf read/write mix at `rate_per_s` for 3 simulated seconds,
// and pod 0 insonified at 650 Hz / 140 dB / 1 cm from t = 0.5 s to
// t = 2.5 s, which is also the SLO focus. Engine workers come from
// $DEEPNOTE_JOBS.
#pragma once

#include <cstddef>
#include <memory>

#include "cluster/cell.h"

namespace deepnote::bench {

inline cluster::CellSpec attacked_fleet_spec(std::size_t pods,
                                             double rate_per_s) {
  cluster::CellSpec spec;
  spec.cluster.topology = {.pods = pods, .bays_per_pod = 5};
  spec.cluster.seed = 0x1234;
  spec.engine.balancer.policy = cluster::PlacementPolicy::kCrossPod;
  spec.engine.balancer.objects = 20000;
  spec.engine.traffic.arrival_rate_per_s = rate_per_s;
  spec.engine.traffic.duration = sim::Duration::from_seconds(3.0);
  spec.engine.traffic.keyspace = 1000000;
  spec.engine.traffic.seed = 0xbeef;
  // The 1M-key alias table is immutable: one build serves every cell,
  // as run_cluster_experiment shares one across its grid.
  static const auto zipf = std::make_shared<const cluster::ZipfAliasSampler>(
      spec.engine.traffic.keyspace, spec.engine.traffic.zipf_theta);
  spec.engine.zipf = zipf;
  spec.engine.jobs = 0;  // $DEEPNOTE_JOBS
  spec.focus_begin = sim::SimTime::from_seconds(0.5);
  spec.focus_end = sim::SimTime::from_seconds(2.5);
  cluster::resilience::script_pod_attack(spec.chaos, {0}, 0.01,
                                         spec.focus_begin, spec.focus_end);
  return spec;
}

}  // namespace deepnote::bench
