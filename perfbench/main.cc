// perfbench: the simulator's layer-attributed benchmark program.
//
//   perfbench --workload <overload_1k|fleet_10k|paper_kvdb> --seed <n>
//             --seconds <s> --trace <0|1> [--jobs <n>] [--short]
//             [--trace-out <file>]
//
// Repeats set-up + timed phase while another iteration fits in
// `--seconds`, checking every iteration's outputs, then sets the
// workload up 15 more times (set-up time is a metric of its own).
// Every iteration of one seed must produce the same digest of simulated
// statistics.
//
// --trace 0 reports the end-to-end metrics. --trace 1 alternates
// untraced and traced iterations and reports the per-layer metrics of
// the traced ones, plus trace.overhead_ratio (traced over untraced
// ns_per_request). The last stdout line is the result object:
//   {"correct": ..., "attempted": <iterations>, "failed": <iterations
//    whose checks failed>, "metrics": {"<name>": {"value", "unit"}}}
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "trace.h"
#include "workloads.h"

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

constexpr MetricSpec kEndToEnd[] = {
    {"ns_per_request", "ns"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"failed_share", "ratio"},
};

// "sim_ms" marks simulated time; every other time is host time.
constexpr MetricSpec kPerLayer[] = {
    {"setup.zipf_s", "s"},
    {"setup.cluster_s", "s"},
    {"setup.engine_s", "s"},
    {"setup.preload_s", "s"},
    {"engine.epochs", "count"},
    {"engine.step_ms_p50", "ms"},
    {"engine.step_ms_p99", "ms"},
    {"engine.self_s", "s"},
    {"engine.max_node_depth", "count"},
    {"balancer.read_failovers", "count"},
    {"balancer.hedged_reads", "count"},
    {"balancer.hedge_wins", "count"},
    {"balancer.quorum_losses", "count"},
    {"balancer.deadline_misses", "count"},
    {"balancer.drains", "count"},
    {"balancer.readmits", "count"},
    {"balancer.probes", "count"},
    {"serving.legs_submitted", "count"},
    {"serving.legs_served", "count"},
    {"serving.legs_shed", "count"},
    {"serving.legs_timed_out", "count"},
    {"serving.legs_cancelled", "count"},
    {"serving.useful_leg_ratio", "ratio"},
    {"serving.queue_wait_p99_ms", "sim_ms"},
    {"serving.service_p99_ms", "sim_ms"},
    {"serving.max_queue_depth", "count"},
    {"resilience.client_retries", "count"},
    {"resilience.retry_budget_denied", "count"},
    {"resilience.breaker_opens", "count"},
    {"resilience.breaker_short_circuits", "count"},
    {"resilience.brownout_shed", "count"},
    {"core.attack_calls", "count"},
    {"core.attack_ms", "ms"},
    {"device.calls", "count"},
    {"device.reads", "count"},
    {"device.writes", "count"},
    {"device.flushes", "count"},
    {"device.errors", "count"},
    {"device.busy_s", "s"},
    {"device.ns_per_call", "ns"},
    {"os.timeouts", "count"},
    {"os.device_resets", "count"},
    {"os.buffer_io_errors", "count"},
    {"hdd.media_retries", "count"},
    {"hdd.media_errors", "count"},
    {"hdd.hung_commands", "count"},
    {"hdd.shock_parks", "count"},
    {"hdd.bytes_written", "count"},
    {"extfs.commits", "count"},
    {"extfs.cache_hit_ratio", "ratio"},
    {"extfs.data_pages_written", "count"},
    {"extfs.throttle_stalls", "count"},
    {"kvdb.puts", "count"},
    {"kvdb.gets", "count"},
    {"kvdb.flushes", "count"},
    {"kvdb.compactions", "count"},
    {"kvdb.memtable_hit_ratio", "ratio"},
    {"kvdb.sst_block_reads_per_get", "ratio"},
    {"kvdb.stalled_writes", "count"},
    {"kvdb.write_amplification", "ratio"},
    {"workload.run_s", "s"},
    {"workload.self_s", "s"},
    {"trace.overhead_ratio", "ratio"},
};

/// Set-up is short next to a run, so it is also repeated on its own
/// after the timed iterations and reported as a median.
constexpr int kSetupOnlyReps = 15;
/// Bound on spans kept in memory (a 65 s overload run records ~7k).
constexpr std::size_t kSpanCapacity = 1u << 20;

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--jobs <n>] [--short] "
               "[--trace-out <file>]\n",
               why);
  return 2;
}

struct Iteration {
  bool traced = false;
  double ns_per_request = 0.0;
  perfbench::Outcome outcome;
};

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::optional<std::uint64_t> seed;
  double seconds = 0.0;
  int trace = -1;
  unsigned jobs = 4;
  bool shortened = false;
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--short") {
      shortened = true;
    } else if (arg == "--workload" && has_value) {
      workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      trace = std::atoi(argv[++i]);
    } else if (arg == "--jobs" && has_value) {
      jobs = static_cast<unsigned>(std::strtoul(argv[++i], nullptr, 10));
    } else if (arg == "--trace-out" && has_value) {
      trace_out = argv[++i];
    } else {
      return usage(("bad argument: " + arg).c_str());
    }
  }
  if (!seed || !(seconds > 0.0) || (trace != 0 && trace != 1) || jobs == 0) {
    return usage("missing or invalid argument");
  }
  const perfbench::WorkloadOptions options{
      .seed = *seed, .jobs = jobs, .shortened = shortened};
  const std::vector<std::string>& names = perfbench::workload_names();
  if (std::find(names.begin(), names.end(), workload) == names.end()) {
    return usage(("unknown workload: " + workload).c_str());
  }

  std::vector<perfbench::SetupTimes> setups;
  perfbench::SpanLog log(kSpanCapacity);
  std::vector<Iteration> iterations;
  std::uint64_t failed = 0;
  double peak_rss_mb = 0.0;
  try {
    const std::int64_t begin = perfbench::now_ns();
    for (;;) {
      const std::int64_t started = perfbench::now_ns();
      Iteration it;
      it.traced = trace == 1 && iterations.size() % 2 == 1;
      auto w = perfbench::make_workload(workload, options,
                                        it.traced ? &log : nullptr);
      setups.push_back(w->setup());
      const std::int64_t t0 = perfbench::now_ns();
      w->run();
      const std::int64_t t1 = perfbench::now_ns();
      it.outcome = w->finish();
      w.reset();
      perfbench::Outcome& o = it.outcome;
      it.ns_per_request = static_cast<double>(t1 - t0) /
                          static_cast<double>(std::max<std::uint64_t>(
                              o.attempted, 1));
      if (!iterations.empty() &&
          o.digest != iterations.front().outcome.digest) {
        o.check_failures.push_back("digest differs between iterations");
      }
      for (const std::string& why : o.check_failures) {
        std::fprintf(stderr, "perfbench: check failed: %s\n", why.c_str());
      }
      if (!o.check_failures.empty()) ++failed;
      std::fprintf(stderr,
                   "perfbench: iteration %zu%s setup %.4f s, run %.4f s, "
                   "%.1f ns/request\n",
                   iterations.size(), it.traced ? " (traced)" : "",
                   setups.back().total(),
                   static_cast<double>(t1 - t0) * 1e-9, it.ns_per_request);
      iterations.push_back(std::move(it));
      if (iterations.size() == 1) {
        // Taken after the first iteration: later ones reuse the freed
        // heap, but fragmentation would make the peak depend on how many
        // iterations fit in --seconds.
        rusage usage{};
        getrusage(RUSAGE_SELF, &usage);
        peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
      }

      const std::int64_t now = perfbench::now_ns();
      const double elapsed = static_cast<double>(now - begin) * 1e-9;
      const double last = static_cast<double>(now - started) * 1e-9;
      const bool need_traced_pair = trace == 1 && iterations.size() < 2;
      if (!need_traced_pair && elapsed + last > seconds) break;
    }
    for (int i = 0; i < kSetupOnlyReps; ++i) {
      setups.push_back(
          perfbench::make_workload(workload, options, nullptr)->setup());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }

  const perfbench::Outcome& first = iterations.front().outcome;
  std::printf(
      "perfbench: workload=%s seed=%llu jobs=%u iterations=%zu "
      "requests=%llu failed_requests=%llu digest=%016llx\n",
      workload.c_str(), static_cast<unsigned long long>(*seed), jobs,
      iterations.size(), static_cast<unsigned long long>(first.attempted),
      static_cast<unsigned long long>(first.failed),
      static_cast<unsigned long long>(first.digest));

  std::map<std::string, double> values;
  std::vector<double> setup_total;
  for (const perfbench::SetupTimes& s : setups) {
    setup_total.push_back(s.total());
  }
  if (trace == 0) {
    std::vector<double> ns;
    for (const Iteration& it : iterations) ns.push_back(it.ns_per_request);
    values["ns_per_request"] = median(ns);
    values["setup_s"] = median(setup_total);
    values["peak_rss_mb"] = peak_rss_mb;
    values["failed_share"] =
        static_cast<double>(first.failed) /
        static_cast<double>(std::max<std::uint64_t>(first.attempted, 1));
  } else {
    std::map<std::string, std::vector<double>> samples;
    std::vector<double> traced_ns;
    std::vector<double> plain_ns;
    for (const Iteration& it : iterations) {
      (it.traced ? traced_ns : plain_ns).push_back(it.ns_per_request);
      for (const auto& [name, value] : it.outcome.layers) {
        samples[name].push_back(value);
      }
    }
    for (const auto& [name, v] : samples) values[name] = median(v);
    auto setup_median = [&](double perfbench::SetupTimes::*field) {
      std::vector<double> v;
      for (const perfbench::SetupTimes& s : setups) v.push_back(s.*field);
      return median(v);
    };
    values["setup.zipf_s"] = setup_median(&perfbench::SetupTimes::zipf_s);
    values["setup.cluster_s"] =
        setup_median(&perfbench::SetupTimes::cluster_s);
    values["setup.engine_s"] = setup_median(&perfbench::SetupTimes::engine_s);
    values["setup.preload_s"] =
        setup_median(&perfbench::SetupTimes::preload_s);
    values["trace.overhead_ratio"] = median(traced_ns) / median(plain_ns);
    if (!trace_out.empty() && !log.write_jsonl(trace_out)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", trace_out.c_str());
      return 1;
    }
  }

  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %llu, "
              "\"metrics\": {",
              failed == 0 ? "true" : "false", iterations.size(),
              static_cast<unsigned long long>(failed));
  const char* sep = "";
  auto emit = [&](const MetricSpec& spec) {
    // A layer the workload does not run reports 0.
    const auto found = values.find(spec.name);
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                spec.name, found == values.end() ? 0.0 : found->second,
                spec.unit);
    sep = ", ";
  };
  if (trace == 0) {
    for (const MetricSpec& spec : kEndToEnd) emit(spec);
  } else {
    for (const MetricSpec& spec : kPerLayer) emit(spec);
  }
  std::printf("}}\n");
  return 0;
}
