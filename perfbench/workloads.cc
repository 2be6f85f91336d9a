#include "workloads.h"

#include <algorithm>
#include <bit>
#include <optional>
#include <stdexcept>

#include "cluster/engine.h"
#include "cluster/node.h"
#include "cluster/overload_experiment.h"
#include "cluster/resilience/chaos.h"
#include "cluster/slo.h"
#include "cluster/traffic.h"
#include "core/attack.h"
#include "core/scenario.h"
#include "core/testbed.h"
#include "sim/trial_runner.h"
#include "storage/extfs.h"
#include "storage/kvdb/db.h"
#include "workload/db_bench.h"

namespace perfbench {
namespace {

namespace cl = deepnote::cluster;
namespace core = deepnote::core;
namespace sim = deepnote::sim;
namespace storage = deepnote::storage;
namespace kvdb = deepnote::storage::kvdb;
namespace wl = deepnote::workload;

/// FNV-1a over 64-bit words.
class Digest {
 public:
  explicit Digest(std::uint64_t state = 0xcbf29ce484222325ull) : h_(state) {}
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ull;
    }
  }
  void add_double(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_;
};

/// Seconds since `t0`, recorded as a span when the run is traced.
double phase(SpanLog* log, const char* name, std::int64_t t0) {
  const std::int64_t t1 = now_ns();
  if (log != nullptr) log->add({.name = name, .start_ns = t0, .end_ns = t1});
  return static_cast<double>(t1 - t0) * 1e-9;
}

/// Nearest-rank quantile; 0 for an empty sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(rank, v.size() - 1)];
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

void accumulate(DeviceTotals& into, const DeviceTotals& d) {
  into.calls += d.calls;
  into.reads += d.reads;
  into.writes += d.writes;
  into.flushes += d.flushes;
  into.errors += d.errors;
  into.busy_ns += d.busy_ns;
  into.union_ns += d.union_ns;
}

void add_device_metrics(Metrics& m, const DeviceTotals& d) {
  m.emplace_back("device.calls", d.calls);
  m.emplace_back("device.reads", d.reads);
  m.emplace_back("device.writes", d.writes);
  m.emplace_back("device.flushes", d.flushes);
  m.emplace_back("device.errors", d.errors);
  m.emplace_back("device.busy_s", static_cast<double>(d.busy_ns) * 1e-9);
  m.emplace_back("device.ns_per_call",
                 ratio(static_cast<double>(d.busy_ns), d.calls));
}

/// Sums and differences of the OS block layer's and the drive's own
/// counters, so a workload can report just its timed phase.
struct DriveCounters {
  storage::OsDeviceStats os;
  deepnote::hdd::HddStats hdd;

  void add(const storage::OsDeviceStats& o, const deepnote::hdd::HddStats& h) {
    os.commands += o.commands;
    os.timeouts += o.timeouts;
    os.device_resets += o.device_resets;
    os.buffer_io_errors += o.buffer_io_errors;
    hdd.reads += h.reads;
    hdd.writes += h.writes;
    hdd.flushes += h.flushes;
    hdd.bytes_read += h.bytes_read;
    hdd.bytes_written += h.bytes_written;
    hdd.media_retries += h.media_retries;
    hdd.media_errors += h.media_errors;
    hdd.hung_commands += h.hung_commands;
    hdd.shock_parks += h.shock_parks;
  }
  /// Counters accumulated since `before`.
  DriveCounters since(const DriveCounters& before) const {
    DriveCounters d = *this;
    d.os.commands -= before.os.commands;
    d.os.timeouts -= before.os.timeouts;
    d.os.device_resets -= before.os.device_resets;
    d.os.buffer_io_errors -= before.os.buffer_io_errors;
    d.hdd.reads -= before.hdd.reads;
    d.hdd.writes -= before.hdd.writes;
    d.hdd.flushes -= before.hdd.flushes;
    d.hdd.bytes_read -= before.hdd.bytes_read;
    d.hdd.bytes_written -= before.hdd.bytes_written;
    d.hdd.media_retries -= before.hdd.media_retries;
    d.hdd.media_errors -= before.hdd.media_errors;
    d.hdd.hung_commands -= before.hdd.hung_commands;
    d.hdd.shock_parks -= before.hdd.shock_parks;
    return d;
  }
  void digest(Digest& d) const {
    for (const std::uint64_t v :
         {os.commands, os.timeouts, os.device_resets, os.buffer_io_errors,
          hdd.reads, hdd.writes, hdd.flushes, hdd.bytes_read,
          hdd.bytes_written, hdd.media_retries, hdd.media_errors,
          hdd.hung_commands, hdd.shock_parks}) {
      d.add(v);
    }
  }
  void metrics(Metrics& m) const {
    m.emplace_back("os.timeouts", os.timeouts);
    m.emplace_back("os.device_resets", os.device_resets);
    m.emplace_back("os.buffer_io_errors", os.buffer_io_errors);
    m.emplace_back("hdd.media_retries", hdd.media_retries);
    m.emplace_back("hdd.media_errors", hdd.media_errors);
    m.emplace_back("hdd.hung_commands", hdd.hung_commands);
    m.emplace_back("hdd.shock_parks", hdd.shock_parks);
    m.emplace_back("hdd.bytes_written", hdd.bytes_written);
  }
};

core::AttackConfig paper_attack(double distance_m, sim::SimTime start) {
  core::AttackConfig attack;
  attack.frequency_hz = 650.0;
  attack.spl_air_db = 140.0;
  attack.distance_m = distance_m;
  attack.start = start;
  return attack;
}

// ---------------------------------------------------------------------------
// Cluster workloads: a Cluster driven by the sharded engine, one step()
// per epoch.

class EngineWorkload : public Workload {
 public:
  void run() final {
    if (log_ == nullptr) {
      while (engine_->step()) {
      }
    } else {
      for (;;) {
        const std::int64_t t0 = now_ns();
        const bool more = engine_->step();
        const std::int64_t t1 = now_ns();
        if (!more) break;
        const std::int32_t span =
            log_->add({.name = "engine.step", .start_ns = t0, .end_ns = t1});
        const DeviceTotals d = collect_device_calls(log_, span);
        accumulate(device_, d);
        step_ms_.push_back(static_cast<double>(t1 - t0) * 1e-6);
        engine_self_ns_ += (t1 - t0) - d.union_ns;
      }
    }
    report_ = engine_->finish();
  }

 protected:
  EngineWorkload(const WorkloadOptions& options, SpanLog* log)
      : options_(options), log_(log) {}

  /// The devices the engine drives: the cluster's own, each behind a
  /// TimedDevice in a traced run.
  std::vector<storage::BlockDevice*> engine_devices() {
    std::vector<storage::BlockDevice*> devices = cluster_->device_pointers();
    if (log_ != nullptr) {
      timed_.reserve(devices.size());
      for (storage::BlockDevice*& device : devices) {
        device = timed_.emplace_back(std::make_unique<TimedDevice>(*device))
                     .get();
      }
    }
    return devices;
  }

  /// In a traced run every timeline action (the acoustics -> structure
  /// -> servo chain behind apply_attack/stop_attack) is timed.
  std::vector<cl::TimelineAction> timed_actions(
      std::vector<cl::TimelineAction> actions) {
    if (log_ == nullptr) return actions;
    for (cl::TimelineAction& action : actions) {
      action.fn = [this, fn = std::move(action.fn)](sim::SimTime t) {
        const std::int64_t t0 = now_ns();
        fn(t);
        ++attack_calls_;
        attack_ns_ += now_ns() - t0;
      };
    }
    return actions;
  }

  DriveCounters drive_counters() {
    DriveCounters c;
    for (std::size_t p = 0; p < cluster_->topology().pods; ++p) {
      core::RackTestbed& pod = cluster_->pod(p);
      for (std::size_t b = 0; b < pod.bays(); ++b) {
        c.add(pod.device(b).stats(), pod.drive(b).stats());
      }
    }
    return c;
  }

  /// Conservation checks, the digest of every simulated statistic, and
  /// the engine-side per-layer metrics.
  Outcome engine_outcome() {
    const cl::EngineReport& r = report_;
    const cl::SloTracker& slo = *slo_;
    Outcome o;
    o.attempted = slo.total();
    o.failed = slo.failed();
    if (r.traffic.requests != slo.total()) {
      o.check_failures.push_back("requests issued != requests recorded");
    }
    if (slo.succeeded() + slo.failed() != slo.total()) {
      o.check_failures.push_back("attempted != ok + failed");
    }
    if (r.traffic.reads + r.traffic.writes != r.traffic.requests) {
      o.check_failures.push_back("reads + writes != requests");
    }
    const cl::ServingReport& s = r.serving;
    if (s.legs_submitted != s.legs_served + s.legs_failed + s.legs_timed_out +
                                s.legs_shed + s.legs_cancelled) {
      o.check_failures.push_back("serving legs not conserved");
    }

    const cl::BalancerStats& b = r.stats;
    const DriveCounters drives = drive_counters();
    Digest d;
    for (const std::uint64_t v :
         {r.traffic.requests, r.traffic.reads, r.traffic.writes,
          slo.succeeded(), slo.failed(), slo.focus_total(),
          static_cast<std::uint64_t>(slo.p50().ns()),
          static_cast<std::uint64_t>(slo.p99().ns()),
          static_cast<std::uint64_t>(slo.p999().ns()), b.reads, b.writes,
          b.read_failovers, b.hedged_reads, b.hedge_wins, b.retries_denied,
          b.failed_reads, b.failed_writes, b.quorum_losses,
          b.deadline_misses, b.drains, b.degrades, b.readmits, b.probes,
          r.max_node_depth, s.legs_submitted, s.legs_served, s.legs_failed,
          s.legs_timed_out, s.legs_shed, s.legs_cancelled, s.shed_requests,
          s.timed_out_requests, s.error_requests, s.client_retries,
          s.retry_budget_spent, s.retry_budget_denied, s.brownout_shed,
          s.brownout_escalations, s.breaker_opens, s.breaker_short_circuits,
          s.max_queue_depth}) {
      d.add(v);
    }
    for (const double v : {s.queue_wait_p50_ms, s.queue_wait_p99_ms,
                           s.service_p50_ms, s.service_p99_ms}) {
      d.add_double(v);
    }
    for (std::size_t k = 0; k < cl::kNumOutcomeKinds; ++k) {
      d.add(slo.outcome_count(static_cast<cl::OutcomeKind>(k)));
    }
    for (const cl::SloTracker::Window& w : slo.windows()) {
      d.add(w.ok);
      d.add(w.fail);
    }
    drives.digest(d);
    o.digest = d.value();

    if (log_ == nullptr) return o;
    Metrics& m = o.layers;
    m.emplace_back("engine.epochs", step_ms_.size());
    m.emplace_back("engine.step_ms_p50", quantile(step_ms_, 0.50));
    m.emplace_back("engine.step_ms_p99", quantile(step_ms_, 0.99));
    m.emplace_back("engine.self_s",
                   static_cast<double>(engine_self_ns_) * 1e-9);
    m.emplace_back("engine.max_node_depth", r.max_node_depth);
    m.emplace_back("balancer.read_failovers", b.read_failovers);
    m.emplace_back("balancer.hedged_reads", b.hedged_reads);
    m.emplace_back("balancer.hedge_wins", b.hedge_wins);
    m.emplace_back("balancer.quorum_losses", b.quorum_losses);
    m.emplace_back("balancer.deadline_misses", b.deadline_misses);
    m.emplace_back("balancer.drains", b.drains);
    m.emplace_back("balancer.readmits", b.readmits);
    m.emplace_back("balancer.probes", b.probes);
    if (engine_->config().serving.enabled) {
      m.emplace_back("serving.legs_submitted", s.legs_submitted);
      m.emplace_back("serving.legs_served", s.legs_served);
      m.emplace_back("serving.legs_shed", s.legs_shed);
      m.emplace_back("serving.legs_timed_out", s.legs_timed_out);
      m.emplace_back("serving.legs_cancelled", s.legs_cancelled);
      m.emplace_back("serving.useful_leg_ratio",
                     ratio(s.legs_served, s.legs_submitted));
      m.emplace_back("serving.queue_wait_p99_ms", s.queue_wait_p99_ms);
      m.emplace_back("serving.service_p99_ms", s.service_p99_ms);
      m.emplace_back("serving.max_queue_depth", s.max_queue_depth);
      m.emplace_back("resilience.client_retries", s.client_retries);
      m.emplace_back("resilience.retry_budget_denied", s.retry_budget_denied);
      m.emplace_back("resilience.breaker_opens", s.breaker_opens);
      m.emplace_back("resilience.breaker_short_circuits",
                     s.breaker_short_circuits);
      m.emplace_back("resilience.brownout_shed", s.brownout_shed);
    }
    m.emplace_back("core.attack_calls", attack_calls_);
    m.emplace_back("core.attack_ms", static_cast<double>(attack_ns_) * 1e-6);
    add_device_metrics(m, device_);
    drives.metrics(m);
    return o;
  }

  WorkloadOptions options_;
  SpanLog* log_;
  // Declared in dependency order: the engine drives the (timed)
  // devices, which wrap the cluster's, so it is destroyed first.
  std::shared_ptr<const cl::ZipfAliasSampler> zipf_;
  std::unique_ptr<cl::Cluster> cluster_;
  std::vector<std::unique_ptr<TimedDevice>> timed_;
  std::unique_ptr<cl::SloTracker> slo_;
  std::unique_ptr<cl::ShardedClusterEngine> engine_;
  cl::EngineReport report_;

  // Traced-run accumulators.
  std::vector<double> step_ms_;
  std::int64_t engine_self_ns_ = 0;
  DeviceTotals device_;
  std::uint64_t attack_calls_ = 0;
  std::int64_t attack_ns_ = 0;
};

/// overload_1k: the governed + breaker overload-recovery cell at 1000
/// nodes, as bench_json --overload1k runs it, with setup split out.
class Overload1k final : public EngineWorkload {
 public:
  Overload1k(const WorkloadOptions& options, SpanLog* log)
      : EngineWorkload(options, log),
        config_(cl::overload_experiment_config(/*scale=*/0.1)),
        cell_seed_(sim::trial_seed(config_.seed, options.seed)) {
    constexpr std::size_t kPods = 200;
    config_.topology = {.pods = kPods, .bays_per_pod = 5};
    // Client population and offered rate scale with the fleet, relative
    // to the 15-node grid the golden table pins (~70% utilization).
    const double fleet = static_cast<double>(kPods * 5) / 15.0;
    config_.traffic.arrival_rate_per_s *= fleet;
    config_.clients =
        static_cast<std::size_t>(static_cast<double>(config_.clients) * fleet);
    config_.traffic.zipf_theta = 0.01;
    config_.balancer.objects = kPods * 5 * 20;
    config_.attacked_pods.clear();
    for (std::size_t pod = 0; pod < kPods * 2 / 3; ++pod) {
      config_.attacked_pods.push_back(pod);
    }
    if (options.shortened) config_.observe = sim::Duration::from_seconds(10.0);
  }

  SetupTimes setup() override {
    SetupTimes times;
    std::int64_t t = now_ns();
    zipf_ = std::make_shared<const cl::ZipfAliasSampler>(
        config_.traffic.keyspace, config_.traffic.zipf_theta);
    times.zipf_s = phase(log_, "setup.zipf", t);

    t = now_ns();
    cl::ClusterConfig cluster_config;
    cluster_config.scenario = config_.scenario;
    cluster_config.topology = config_.topology;
    cluster_config.seed = sim::trial_seed(cell_seed_, 0);
    cluster_ = std::make_unique<cl::Cluster>(cluster_config);
    std::vector<storage::BlockDevice*> devices = engine_devices();
    times.cluster_s = phase(log_, "setup.cluster", t);

    t = now_ns();
    const sim::SimTime start = sim::SimTime::zero();
    attack_on_ = start + config_.warmup;
    const sim::SimTime attack_off = attack_on_ + kAttack;

    cl::EngineConfig ec;
    ec.balancer = config_.balancer;
    ec.balancer.policy = config_.placement;
    ec.balancer.replication = config_.replication;
    ec.traffic = config_.traffic;
    ec.traffic.duration = config_.warmup + kAttack + config_.observe;
    ec.traffic.seed = sim::trial_seed(cell_seed_, 1);
    ec.detector = cluster_->config().detector;
    ec.jobs = options_.jobs;
    ec.zipf = zipf_;
    ec.serving.enabled = true;
    ec.serving.closed_loop = true;
    ec.serving.clients = config_.clients;
    ec.serving.server.queue_limit = config_.queue_limit;
    ec.serving.server.admission = config_.admission;
    ec.serving.backoff = config_.governed_backoff;
    ec.serving.retry_budget = config_.governed_budget;
    ec.serving.server.drop_expired = true;
    ec.breaker = config_.breaker;
    ec.breaker.enabled = true;
    engine_ = std::make_unique<cl::ShardedClusterEngine>(
        cluster_->topology(), std::move(devices), std::move(ec));

    namespace rs = cl::resilience;
    rs::ChaosConfig chaos;
    chaos.nodes = cluster_->topology().nodes();
    chaos.pods = cluster_->topology().pods;
    chaos.pulse_frequency_hz = config_.frequency_hz;
    chaos.pulse_spl_air_db = config_.spl_air_db;
    for (const std::size_t pod : config_.attacked_pods) {
      const auto target = static_cast<std::uint32_t>(pod);
      chaos.scripted.push_back({attack_on_, rs::ChaosEventKind::kPodAttackOn,
                                target, config_.attack_distance_m});
      chaos.scripted.push_back(
          {attack_off, rs::ChaosEventKind::kPodAttackOff, target, 0.0});
    }
    const std::vector<rs::ChaosEvent> schedule =
        rs::make_chaos_schedule(chaos, cell_seed_, 2);
    slo_ = std::make_unique<cl::SloTracker>(start);
    slo_->set_focus(attack_on_, attack_off);
    engine_->start_run(
        start, *slo_,
        timed_actions(rs::chaos_actions(schedule, *engine_, *cluster_, chaos)));
    times.engine_s = phase(log_, "setup.engine", t);
    return times;
  }

  Outcome finish() override {
    Outcome o = engine_outcome();
    // The bench_json --overload1k gates: a >= 99% SLO window within 30
    // simulated seconds of attack-off (window-granular, as the
    // overload experiment reads it).
    const sim::SimTime attack_off = attack_on_ + kAttack;
    const std::int64_t window_ns = slo_->config().window.ns();
    const std::vector<cl::SloTracker::Window>& windows = slo_->windows();
    std::optional<double> recovery_s;
    for (std::size_t i = 0; i < windows.size() && !recovery_s; ++i) {
      const std::int64_t begin_ns =
          slo_->start().ns() + static_cast<std::int64_t>(i) * window_ns;
      const cl::SloTracker::Window& w = windows[i];
      if (begin_ns < attack_off.ns() || w.ok + w.fail == 0) continue;
      if (w.availability() >= config_.recovered_availability) {
        recovery_s =
            static_cast<double>(begin_ns + window_ns - attack_off.ns()) * 1e-9;
      }
    }
    if (!recovery_s) {
      o.check_failures.push_back("overload_1k never recovered");
    } else if (*recovery_s > 30.0) {
      o.check_failures.push_back("overload_1k recovery_s > 30");
    }
    return o;
  }

 private:
  static constexpr sim::Duration kAttack = sim::Duration::from_seconds(5.0);
  cl::OverloadExperimentConfig config_;
  std::uint64_t cell_seed_;
  sim::SimTime attack_on_ = sim::SimTime::zero();
};

/// fleet_10k: the immediate-dispatch availability cell at 10,000 nodes.
class Fleet10k final : public EngineWorkload {
 public:
  Fleet10k(const WorkloadOptions& options, SpanLog* log)
      : EngineWorkload(options, log),
        cell_seed_(sim::trial_seed(0xdeeb, options.seed)) {}

  SetupTimes setup() override {
    constexpr std::size_t kPods = 2000;
    constexpr std::uint64_t kKeyspace = 1000000;
    const double duration_s = options_.shortened ? 12.0 : 120.0;

    SetupTimes times;
    std::int64_t t = now_ns();
    cl::TrafficConfig traffic;
    traffic.arrival_rate_per_s = 40000.0;
    traffic.duration = sim::Duration::from_seconds(duration_s);
    traffic.keyspace = kKeyspace;
    traffic.seed = sim::trial_seed(cell_seed_, 1);
    zipf_ = std::make_shared<const cl::ZipfAliasSampler>(traffic.keyspace,
                                                         traffic.zipf_theta);
    times.zipf_s = phase(log_, "setup.zipf", t);

    t = now_ns();
    cl::ClusterConfig cluster_config;
    cluster_config.topology = {.pods = kPods, .bays_per_pod = 5};
    cluster_config.seed = sim::trial_seed(cell_seed_, 0);
    cluster_ = std::make_unique<cl::Cluster>(cluster_config);
    std::vector<storage::BlockDevice*> devices = engine_devices();
    times.cluster_s = phase(log_, "setup.cluster", t);

    t = now_ns();
    cl::EngineConfig ec;
    ec.balancer.policy = cl::PlacementPolicy::kCrossPod;
    ec.balancer.replication = 3;
    ec.balancer.objects = kPods * 5 * 20;  // 20k objects per 1k nodes
    ec.traffic = traffic;
    ec.detector = cluster_->config().detector;
    ec.jobs = options_.jobs;
    ec.zipf = zipf_;
    engine_ = std::make_unique<cl::ShardedClusterEngine>(
        cluster_->topology(), std::move(devices), std::move(ec));

    // 10% of the pods insonified from 20% to 60% of the run.
    const sim::SimTime start = sim::SimTime::zero();
    const sim::SimTime on =
        start + sim::Duration::from_seconds(duration_s * 0.2);
    const sim::SimTime off =
        start + sim::Duration::from_seconds(duration_s * 0.6);
    const core::AttackConfig attack = paper_attack(0.01, on);
    std::vector<cl::TimelineAction> actions;
    cl::Cluster* c = cluster_.get();
    for (std::size_t pod = 0; pod < kPods / 10; ++pod) {
      actions.push_back({on, [c, pod, attack](sim::SimTime at) {
                           c->apply_attack(pod, at, attack);
                         }});
    }
    for (std::size_t pod = 0; pod < kPods / 10; ++pod) {
      actions.push_back(
          {off, [c, pod](sim::SimTime at) { c->stop_attack(pod, at); }});
    }
    slo_ = std::make_unique<cl::SloTracker>(start);
    slo_->set_focus(on, off);
    engine_->start_run(start, *slo_, timed_actions(std::move(actions)));
    times.engine_s = phase(log_, "setup.engine", t);
    return times;
  }

  Outcome finish() override { return engine_outcome(); }

 private:
  std::uint64_t cell_seed_;
};

// ---------------------------------------------------------------------------
// paper_kvdb: the paper's Table 2 on one simulated drive per row.

class PaperKvdb final : public Workload {
 public:
  PaperKvdb(const WorkloadOptions& options, SpanLog* log)
      : log_(log), cell_seed_(sim::trial_seed(0x7a8, options.seed)) {
    bench_.preload_keys = 2000;
    bench_.reader_actors = 2;
    bench_.ramp = sim::Duration::from_seconds(0.5);
    bench_.duration =
        sim::Duration::from_seconds(options.shortened ? 0.5 : 2.0);
    rows_[0].distance_m = std::nullopt;
    rows_[1].distance_m = 0.01;
    rows_[2].distance_m = 0.15;
  }

  SetupTimes setup() override {
    SetupTimes times;
    for (std::size_t i = 0; i < kRows; ++i) {
      Row& row = rows_[i];
      std::int64_t t = now_ns();
      row.bed = std::make_unique<core::Testbed>(core::make_scenario(
          core::ScenarioId::kPlasticTower, sim::trial_seed(cell_seed_, i)));
      storage::BlockDevice* device = &row.bed->device();
      if (log_ != nullptr) {
        row.timed = std::make_unique<TimedDevice>(*device);
        device = row.timed.get();
      }
      times.cluster_s += phase(log_, "setup.cluster", t);

      t = now_ns();
      storage::MkfsOptions mkfs;
      mkfs.total_blocks = 2u << 18;  // 4 GiB filesystem
      const storage::FsResult made =
          storage::ExtFs::mkfs(*device, sim::SimTime::zero(), mkfs);
      if (!made.ok()) throw std::runtime_error("paper_kvdb: mkfs failed");
      storage::ExtFs::MountOutcome mount =
          storage::ExtFs::mount(*device, made.done);
      if (!mount.ok()) throw std::runtime_error("paper_kvdb: mount failed");
      row.fs = std::move(mount.fs);
      kvdb::Db::OpenResult open = kvdb::Db::open(*row.fs, mount.done);
      if (!open.ok()) throw std::runtime_error("paper_kvdb: open failed");
      row.db = std::move(open.db);
      row.bench = std::make_unique<wl::DbBench>(*row.fs, *row.db);
      sim::SimTime now =
          row.bench->fillseq(open.done, bench_.preload_keys, bench_);
      if (row.db->fatal()) throw std::runtime_error("paper_kvdb: preload");
      const kvdb::DbResult flushed = row.db->flush(now);
      if (!flushed.ok()) throw std::runtime_error("paper_kvdb: flush");
      row.start = row.fs->sync(flushed.done).done;
      const std::int64_t t1 = now_ns();
      times.preload_s += static_cast<double>(t1 - t) * 1e-9;
      if (log_ != nullptr) {
        const std::int32_t parent = log_->add(
            {.name = "setup.preload", .start_ns = t, .end_ns = t1});
        (void)collect_device_calls(log_, parent);  // setup I/O, not timed
      }
      row.drive_before = drive_counters(row);
      row.db_before = row.db->stats();
      row.fs_before = row.fs->stats();
    }
    return times;
  }

  void run() override {
    for (std::size_t i = 0; i < kRows; ++i) {
      Row& row = rows_[i];
      if (row.distance_m) {
        const std::int64_t t = now_ns();
        row.bed->apply_attack(row.start, paper_attack(*row.distance_m,
                                                      row.start));
        attack_ns_ += now_ns() - t;
        ++attack_calls_;
      }
      wl::DbBenchConfig config = bench_;
      config.seed = sim::trial_seed(cell_seed_, kRows + i);
      const std::int64_t t0 = now_ns();
      row.report = row.bench->readwhilewriting(row.start, config);
      if (log_ != nullptr) {
        const std::int64_t t1 = now_ns();
        const std::int32_t parent =
            log_->add({.name = "workload.readwhilewriting",
                       .start_ns = t0,
                       .end_ns = t1});
        accumulate(device_, collect_device_calls(log_, parent));
        run_ns_ += t1 - t0;
      }
    }
  }

  Outcome finish() override {
    Outcome o;
    Digest d;
    DriveCounters drives;
    kvdb::DbStats db;
    storage::ExtFsStats fs;
    for (std::size_t i = 0; i < kRows; ++i) {
      const Row& row = rows_[i];
      const wl::DbBenchReport& r = row.report;
      // The op that takes the store down (a WAL sync hung in OS command
      // retries) is still in flight when the window closes, so the meter
      // never records it; it is a failed op all the same.
      const sim::SimTime window_end =
          row.start + bench_.ramp + bench_.duration;
      const std::uint64_t lost =
          r.db_fatal && r.fatal_time >= window_end ? 1 : 0;
      o.attempted += r.ops + r.errors + lost;
      o.failed += r.errors + lost;
      if (r.ops == 0) o.check_failures.push_back("paper_kvdb: a row ran 0 ops");
      for (const std::uint64_t v :
           {r.ops, r.errors, static_cast<std::uint64_t>(r.db_fatal),
            static_cast<std::uint64_t>(r.fatal_time.ns()),
            static_cast<std::uint64_t>(r.end_time.ns())}) {
        d.add(v);
      }
      d.add_double(r.throughput_mbps);

      const DriveCounters dc = drive_counters(row).since(row.drive_before);
      dc.digest(d);
      drives.add(dc.os, dc.hdd);
      const kvdb::DbStats& a = row.db->stats();
      const kvdb::DbStats& b = row.db_before;
      const kvdb::DbStats dd{
          a.puts - b.puts, a.gets - b.gets, a.deletes - b.deletes,
          a.flushes - b.flushes, a.compactions - b.compactions,
          a.wal_syncs - b.wal_syncs, a.memtable_hits - b.memtable_hits,
          a.sst_block_reads - b.sst_block_reads,
          a.stalled_writes - b.stalled_writes,
          a.stalled_reads - b.stalled_reads, a.bytes_written - b.bytes_written,
          a.bytes_read - b.bytes_read};
      for (const std::uint64_t v :
           {dd.puts, dd.gets, dd.deletes, dd.flushes, dd.compactions,
            dd.wal_syncs, dd.memtable_hits, dd.sst_block_reads,
            dd.stalled_writes, dd.stalled_reads, dd.bytes_written,
            dd.bytes_read}) {
        d.add(v);
      }
      db.puts += dd.puts;
      db.gets += dd.gets;
      db.flushes += dd.flushes;
      db.compactions += dd.compactions;
      db.memtable_hits += dd.memtable_hits;
      db.sst_block_reads += dd.sst_block_reads;
      db.stalled_writes += dd.stalled_writes;
      const storage::ExtFsStats& fa = row.fs->stats();
      const storage::ExtFsStats& fb = row.fs_before;
      const storage::ExtFsStats fd{
          fa.commits - fb.commits, fa.checkpoint_blocks - fb.checkpoint_blocks,
          fa.data_pages_written - fb.data_pages_written,
          fa.throttle_stalls - fb.throttle_stalls,
          fa.cache_hits - fb.cache_hits, fa.cache_misses - fb.cache_misses};
      for (const std::uint64_t v :
           {fd.commits, fd.checkpoint_blocks, fd.data_pages_written,
            fd.throttle_stalls, fd.cache_hits, fd.cache_misses}) {
        d.add(v);
      }
      fs.commits += fd.commits;
      fs.data_pages_written += fd.data_pages_written;
      fs.throttle_stalls += fd.throttle_stalls;
      fs.cache_hits += fd.cache_hits;
      fs.cache_misses += fd.cache_misses;
    }
    // The paper's Table 2 shape: 1 cm kills the store, no attack does not.
    if (rows_[0].report.db_fatal) {
      o.check_failures.push_back("paper_kvdb: no-attack row went db-fatal");
    }
    if (!rows_[1].report.db_fatal) {
      o.check_failures.push_back("paper_kvdb: 1 cm row did not go db-fatal");
    }
    o.digest = d.value();

    if (log_ == nullptr) return o;
    Metrics& m = o.layers;
    m.emplace_back("core.attack_calls", attack_calls_);
    m.emplace_back("core.attack_ms", static_cast<double>(attack_ns_) * 1e-6);
    add_device_metrics(m, device_);
    drives.metrics(m);
    m.emplace_back("extfs.commits", fs.commits);
    m.emplace_back("extfs.cache_hit_ratio",
                   ratio(fs.cache_hits, fs.cache_hits + fs.cache_misses));
    m.emplace_back("extfs.data_pages_written", fs.data_pages_written);
    m.emplace_back("extfs.throttle_stalls", fs.throttle_stalls);
    m.emplace_back("kvdb.puts", db.puts);
    m.emplace_back("kvdb.gets", db.gets);
    m.emplace_back("kvdb.flushes", db.flushes);
    m.emplace_back("kvdb.compactions", db.compactions);
    m.emplace_back("kvdb.memtable_hit_ratio", ratio(db.memtable_hits, db.gets));
    m.emplace_back("kvdb.sst_block_reads_per_get",
                   ratio(db.sst_block_reads, db.gets));
    m.emplace_back("kvdb.stalled_writes", db.stalled_writes);
    m.emplace_back(
        "kvdb.write_amplification",
        ratio(drives.hdd.bytes_written,
              static_cast<double>(db.puts) *
                  (bench_.key_bytes + bench_.value_bytes)));
    m.emplace_back("workload.run_s", static_cast<double>(run_ns_) * 1e-9);
    m.emplace_back("workload.self_s",
                   static_cast<double>(run_ns_ - device_.busy_ns) * 1e-9);
    return o;
  }

 private:
  static constexpr std::size_t kRows = 3;
  // Members in dependency order: each is destroyed before what it uses.
  struct Row {
    std::optional<double> distance_m;
    std::unique_ptr<core::Testbed> bed;
    std::unique_ptr<TimedDevice> timed;
    std::unique_ptr<storage::ExtFs> fs;
    std::unique_ptr<kvdb::Db> db;
    std::unique_ptr<wl::DbBench> bench;
    sim::SimTime start = sim::SimTime::zero();
    DriveCounters drive_before;
    kvdb::DbStats db_before;
    storage::ExtFsStats fs_before;
    wl::DbBenchReport report;
  };

  static DriveCounters drive_counters(const Row& row) {
    DriveCounters c;
    c.add(row.bed->device().stats(), row.bed->drive().stats());
    return c;
  }

  SpanLog* log_;
  std::uint64_t cell_seed_;
  wl::DbBenchConfig bench_;
  Row rows_[kRows];

  // Traced-run accumulators.
  DeviceTotals device_;
  std::int64_t run_ns_ = 0;
  std::uint64_t attack_calls_ = 0;
  std::int64_t attack_ns_ = 0;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"overload_1k", "fleet_10k",
                                                 "paper_kvdb"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const WorkloadOptions& options,
                                        SpanLog* log) {
  if (name == "overload_1k") return std::make_unique<Overload1k>(options, log);
  if (name == "fleet_10k") return std::make_unique<Fleet10k>(options, log);
  if (name == "paper_kvdb") return std::make_unique<PaperKvdb>(options, log);
  return nullptr;
}

}  // namespace perfbench
