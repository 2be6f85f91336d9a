// The benchmark's three workloads, composed from the simulator's public
// API. Each one splits into an untimed setup, the timed phase, and an
// untimed finish that checks the outputs, digests the simulated
// statistics and (in a traced run) derives the per-layer metrics.
// README.md in this directory says why each workload exists.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "trace.h"

namespace perfbench {

/// Named values in emission order.
using Metrics = std::vector<std::pair<std::string, double>>;

struct WorkloadOptions {
  std::uint64_t seed = 1;
  /// Engine worker threads (the cluster workloads; paper_kvdb runs on
  /// one thread). Results are identical at any value.
  unsigned jobs = 4;
  /// Shortened simulated timelines, for the determinism test.
  bool shortened = false;
};

/// Host seconds spent in each setup phase.
struct SetupTimes {
  double zipf_s = 0.0;     ///< Zipf alias table
  double cluster_s = 0.0;  ///< simulated hardware: Cluster or Testbeds
  double engine_s = 0.0;   ///< engine, chaos schedule, start_run
  double preload_s = 0.0;  ///< mkfs, mount, kvdb open, fillseq, sync

  double total() const { return zipf_s + cluster_s + engine_s + preload_s; }
};

struct Outcome {
  /// Simulated requests (cluster) or db ops (paper_kvdb) attempted and
  /// failed in the timed phase.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// FNV-1a over the simulated statistics: a speed-only change to the
  /// simulator must leave it unchanged for every seed.
  std::uint64_t digest = 0;
  /// Empty when every output check passed.
  std::vector<std::string> check_failures;
  /// Per-layer metrics (traced runs only).
  Metrics layers;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Build every fixture; the next run() call is the first timed step.
  virtual SetupTimes setup() = 0;
  /// The timed phase.
  virtual void run() = 0;
  /// Untimed: checks, digest, per-layer metrics.
  virtual Outcome finish() = 0;
};

/// The workload names, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

/// nullptr for an unknown name. A non-null `log` makes the run traced:
/// devices are wrapped in TimedDevice and spans go to `log`.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const WorkloadOptions& options,
                                        SpanLog* log);

}  // namespace perfbench
