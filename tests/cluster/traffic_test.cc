// Traffic generator tests: Zipf popularity shape, open-loop Poisson
// arrival counts, deterministic replay, the read/write mix, timeline
// action delivery, and the closed-loop population's calendar queue
// against a brute-force scan.
#include "cluster/traffic.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "storage/mem_disk.h"

namespace deepnote::cluster {
namespace {

constexpr std::uint64_t kSectors = 16384;

struct MiniServing {
  ClusterTopology topo{.pods = 3, .bays_per_pod = 1};
  std::vector<std::unique_ptr<storage::MemDisk>> disks;
  std::vector<std::unique_ptr<ClusterNode>> nodes;
  std::unique_ptr<Balancer> balancer;

  MiniServing() {
    for (std::size_t pod = 0; pod < topo.pods; ++pod) {
      disks.push_back(std::make_unique<storage::MemDisk>(kSectors));
      nodes.push_back(std::make_unique<ClusterNode>(
          topo.node_id(pod, 0), pod, 0, *disks.back()));
    }
    std::vector<ClusterNode*> pointers;
    for (auto& n : nodes) pointers.push_back(n.get());
    BalancerConfig config;
    config.objects = 1000;
    balancer = std::make_unique<Balancer>(topo, pointers, config);
  }
};

TEST(Zipf, RankZeroIsHottest) {
  const ZipfGenerator zipf(1000, 0.99);
  sim::Rng rng(42);
  std::vector<std::uint64_t> counts(1000, 0);
  constexpr int kSamples = 20000;
  for (int i = 0; i < kSamples; ++i) ++counts[zipf.next(rng)];
  for (std::size_t rank = 1; rank < counts.size(); ++rank) {
    EXPECT_GE(counts[0], counts[rank]) << "rank " << rank;
  }
  // Under theta=0.99 the head takes a far-greater-than-uniform share.
  EXPECT_GT(counts[0], kSamples / 100);
}

TEST(Zipf, StaysInRangeAndRejectsBadConfig) {
  const ZipfGenerator zipf(10, 0.5);
  sim::Rng rng(7);
  for (int i = 0; i < 5000; ++i) EXPECT_LT(zipf.next(rng), 10u);
  EXPECT_THROW(ZipfGenerator(0, 0.99), std::invalid_argument);
  EXPECT_THROW(ZipfGenerator(10, 1.0), std::invalid_argument);
}

TEST(ZipfAlias, ExactProbabilitiesSumToOneAndDecay) {
  const ZipfAliasSampler zipf(1000, 0.99);
  double sum = 0.0;
  for (std::uint64_t rank = 0; rank < 1000; ++rank) {
    sum += zipf.probability(rank);
    if (rank > 0) {
      EXPECT_LT(zipf.probability(rank), zipf.probability(rank - 1));
    }
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(ZipfAlias, MatchesTheExactDistribution) {
  // The alias table must reproduce its own exact pmf: bucket each of a
  // large sample run and compare against n * p(rank) within 5 sigma of
  // the binomial noise floor.
  constexpr std::uint64_t kN = 500;
  constexpr double kTheta = 0.99;
  constexpr int kSamples = 200000;
  const ZipfAliasSampler zipf(kN, kTheta);
  sim::Rng rng(0xa11a5);
  std::vector<std::uint64_t> counts(kN, 0);
  for (int i = 0; i < kSamples; ++i) {
    const std::uint64_t rank = zipf.next(rng);
    ASSERT_LT(rank, kN);
    ++counts[rank];
  }
  for (std::uint64_t rank = 0; rank < kN; ++rank) {
    const double expected = kSamples * zipf.probability(rank);
    const double sigma = std::sqrt(expected);
    EXPECT_NEAR(static_cast<double>(counts[rank]), expected,
                5.0 * sigma + 1.0)
        << "rank " << rank;
  }
}

TEST(ZipfAlias, AgreesWithTheApproximateGenerator) {
  // The YCSB generator is an approximation of the same law; over coarse
  // buckets the two samplers must tell the same popularity story (the
  // alias sampler is the refinement, not a different distribution).
  constexpr std::uint64_t kN = 1000;
  constexpr double kTheta = 0.99;
  constexpr int kSamples = 100000;
  const ZipfAliasSampler alias(kN, kTheta);
  const ZipfGenerator approx(kN, kTheta);
  sim::Rng rng_a(77);
  sim::Rng rng_b(78);
  // Log-spaced buckets: [0,1), [1,10), [10,100), [100,1000).
  auto bucket_of = [](std::uint64_t rank) {
    if (rank < 1) return 0;
    if (rank < 10) return 1;
    if (rank < 100) return 2;
    return 3;
  };
  double share_a[4] = {0, 0, 0, 0};
  double share_b[4] = {0, 0, 0, 0};
  for (int i = 0; i < kSamples; ++i) {
    ++share_a[bucket_of(alias.next(rng_a))];
    ++share_b[bucket_of(approx.next(rng_b))];
  }
  for (int b = 0; b < 4; ++b) {
    share_a[b] /= kSamples;
    share_b[b] /= kSamples;
    EXPECT_NEAR(share_a[b], share_b[b], 0.02) << "bucket " << b;
  }
}

TEST(ZipfAlias, DeterministicAndRejectsBadConfig) {
  const ZipfAliasSampler zipf(100, 0.7);
  sim::Rng a(123);
  sim::Rng b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(zipf.next(a), zipf.next(b));
  EXPECT_THROW(ZipfAliasSampler(0, 0.99), std::invalid_argument);
  EXPECT_THROW(ZipfAliasSampler(10, 0.0), std::invalid_argument);
  EXPECT_THROW(ZipfAliasSampler(10, 1.0), std::invalid_argument);
}

TEST(ZipfAlias, DrawThenResolveIsNext) {
  // The engine draws a whole epoch of keys before resolving any: the
  // split must consume the stream exactly like next() and give the same
  // key, with the bucket still the plain `u64 % n` of the first draw.
  for (const std::uint64_t n : {1ull, 1000ull, 999983ull, 1000000ull}) {
    const ZipfAliasSampler zipf(n, 0.99);
    sim::Rng whole(n);
    sim::Rng split(n);
    sim::Rng ref(n);
    for (int i = 0; i < 100000; ++i) {
      const ZipfAliasSampler::Draw d = zipf.draw(split);
      ASSERT_EQ(d.bucket, ref.next_u64() % n) << "n=" << n << " i=" << i;
      ASSERT_EQ(d.coin, ref.next_double()) << "n=" << n << " i=" << i;
      ASSERT_EQ(zipf.resolve(d), zipf.next(whole)) << "n=" << n << " i=" << i;
    }
    const std::uint64_t after = ref.next_u64();
    EXPECT_EQ(whole.next_u64(), after);
    EXPECT_EQ(split.next_u64(), after);
  }
}

TEST(Traffic, OpenLoopArrivalCountTracksTheRate) {
  MiniServing serving;
  TrafficConfig config;
  config.arrival_rate_per_s = 2000.0;
  config.duration = sim::Duration::from_seconds(1.0);
  config.keyspace = 1000;
  TrafficRunner runner(*serving.balancer, config);
  SloTracker slo(sim::SimTime::zero());
  const TrafficReport report = runner.run(sim::SimTime::zero(), slo);
  // Poisson(2000): +/- 5 sigma.
  EXPECT_GT(report.requests, 1750u);
  EXPECT_LT(report.requests, 2250u);
  EXPECT_EQ(report.requests, report.reads + report.writes);
  EXPECT_EQ(report.requests, slo.total());
}

TEST(Traffic, ReadWriteMixRoughlyHonored) {
  MiniServing serving;
  TrafficConfig config;
  config.arrival_rate_per_s = 5000.0;
  config.duration = sim::Duration::from_seconds(1.0);
  config.read_fraction = 0.9;
  config.keyspace = 1000;
  TrafficRunner runner(*serving.balancer, config);
  SloTracker slo(sim::SimTime::zero());
  const TrafficReport report = runner.run(sim::SimTime::zero(), slo);
  const double read_share =
      static_cast<double>(report.reads) / static_cast<double>(report.requests);
  EXPECT_GT(read_share, 0.85);
  EXPECT_LT(read_share, 0.95);
}

TEST(Traffic, SameSeedReplaysIdentically) {
  TrafficConfig config;
  config.arrival_rate_per_s = 1000.0;
  config.duration = sim::Duration::from_seconds(1.0);
  config.keyspace = 1000;
  config.seed = 0xfeed;

  MiniServing a;
  SloTracker slo_a(sim::SimTime::zero());
  const TrafficReport ra =
      TrafficRunner(*a.balancer, config).run(sim::SimTime::zero(), slo_a);

  MiniServing b;
  SloTracker slo_b(sim::SimTime::zero());
  const TrafficReport rb =
      TrafficRunner(*b.balancer, config).run(sim::SimTime::zero(), slo_b);

  EXPECT_EQ(ra.requests, rb.requests);
  EXPECT_EQ(ra.reads, rb.reads);
  EXPECT_EQ(ra.writes, rb.writes);
  EXPECT_EQ(slo_a.total(), slo_b.total());
  EXPECT_EQ(slo_a.p99().ns(), slo_b.p99().ns());
  for (std::size_t pod = 0; pod < a.topo.pods; ++pod) {
    EXPECT_EQ(a.disks[pod]->op_count(), b.disks[pod]->op_count());
  }
}

TEST(Traffic, TimelineActionsFireOnceInOrder) {
  MiniServing serving;
  TrafficConfig config;
  config.arrival_rate_per_s = 1000.0;
  config.duration = sim::Duration::from_seconds(1.0);
  config.keyspace = 1000;
  TrafficRunner runner(*serving.balancer, config);
  SloTracker slo(sim::SimTime::zero());

  std::vector<int> fired;
  std::vector<sim::SimTime> fired_at;
  std::vector<TimelineAction> actions;
  actions.push_back({sim::SimTime::from_millis(100.0), [&](sim::SimTime t) {
                       fired.push_back(1);
                       fired_at.push_back(t);
                     }});
  actions.push_back({sim::SimTime::from_millis(600.0), [&](sim::SimTime t) {
                       fired.push_back(2);
                       fired_at.push_back(t);
                     }});
  runner.run(sim::SimTime::zero(), slo, std::move(actions));
  ASSERT_EQ(fired.size(), 2u);
  EXPECT_EQ(fired[0], 1);
  EXPECT_EQ(fired[1], 2);
  // Actions fire at their scheduled time or later (never travel back
  // behind the I/O frontier).
  EXPECT_GE(fired_at[0], sim::SimTime::from_millis(100.0));
  EXPECT_GE(fired_at[1], sim::SimTime::from_millis(600.0));
}

TEST(Traffic, RejectsDegenerateConfig) {
  MiniServing serving;
  TrafficConfig config;
  config.clients = 0;
  EXPECT_THROW(TrafficRunner(*serving.balancer, config),
               std::invalid_argument);
  config = {};
  config.arrival_rate_per_s = 0.0;
  EXPECT_THROW(TrafficRunner(*serving.balancer, config),
               std::invalid_argument);
  config = {};
  config.read_fraction = 1.5;
  EXPECT_THROW(TrafficRunner(*serving.balancer, config),
               std::invalid_argument);
}

// Brute-force model of ClosedLoopPopulation: every client carries its
// own next-issue time and a harvest scans them all for at < horizon,
// then sorts by (at, client). It seeds streams, draws keys and applies
// the retry rule exactly as the population documents.
class PopulationOracle {
 public:
  PopulationOracle(const TrafficConfig& traffic, std::size_t clients,
                   const resilience::BackoffConfig& backoff,
                   sim::SimTime start)
      : clients_(clients),
        think_mean_s_(static_cast<double>(clients) /
                      traffic.arrival_rate_per_s),
        read_fraction_(traffic.read_fraction),
        backoff_(backoff) {
    sim::Rng master(traffic.seed);
    for (std::uint32_t i = 0; i < clients; ++i) {
      Client& c = clients_[i];
      c.rng = master.fork();
      c.jitter_state =
          traffic.seed ^ (0x9e3779b97f4a7c15ull * (std::uint64_t{i} + 1));
      c.at = start + sim::Duration::from_seconds(
                         c.rng.exponential(think_mean_s_));
    }
  }

  std::vector<ClientIssue> collect(sim::SimTime horizon,
                                   const ZipfAliasSampler& zipf) {
    std::vector<ClientIssue> due;
    for (std::uint32_t i = 0; i < clients_.size(); ++i) {
      if (clients_[i].idle && clients_[i].at < horizon) {
        due.push_back(ClientIssue{clients_[i].at, i});
      }
    }
    std::sort(due.begin(), due.end(),
              [](const ClientIssue& a, const ClientIssue& b) {
                return a.at == b.at ? a.client < b.client : a.at < b.at;
              });
    for (ClientIssue& issue : due) {
      Client& c = clients_[issue.client];
      if (!c.has_retry) {
        c.key = zipf.next(c.rng);
        c.is_read = c.rng.bernoulli(read_fraction_);
        c.attempts = 0;
      }
      c.idle = false;
      issue.key = c.key;
      issue.is_read = c.is_read;
    }
    return due;
  }

  void complete(std::uint32_t client, sim::SimTime when,
                OutcomeKind outcome) {
    Client& c = clients_[client];
    c.idle = true;
    const bool retryable =
        outcome == OutcomeKind::kShed ||
        (backoff_.retry_failures && (outcome == OutcomeKind::kFailed ||
                                     outcome == OutcomeKind::kTimedOut));
    c.has_retry = retryable && c.attempts < backoff_.max_retries;
    if (c.has_retry) {
      ++c.attempts;
      c.at = when + resilience::backoff_delay(
                        backoff_, c.attempts,
                        resilience::next_jitter_word(c.jitter_state));
    } else {
      c.at = when + sim::Duration::from_seconds(
                        c.rng.exponential(think_mean_s_));
    }
  }

  /// Idle clients due at or after `horizon` but inside the same ~1 ms
  /// calendar bucket as horizon - 1ns: the harvest must split that bucket.
  std::size_t straddlers(sim::SimTime start, sim::SimTime horizon) const {
    const auto bucket = [&](std::int64_t ns) {
      return (ns - start.ns()) >> 20;
    };
    std::size_t n = 0;
    for (const Client& c : clients_) {
      n += c.idle && c.at >= horizon &&
           bucket(c.at.ns()) == bucket(horizon.ns() - 1);
    }
    return n;
  }

 private:
  struct Client {
    sim::Rng rng{0};
    sim::SimTime at = sim::SimTime::zero();
    std::uint64_t key = 0;
    std::uint64_t jitter_state = 0;
    std::uint32_t attempts = 0;
    bool is_read = true;
    bool has_retry = false;
    bool idle = true;
  };

  std::vector<Client> clients_;
  double think_mean_s_;
  double read_fraction_;
  resilience::BackoffConfig backoff_;
};

/// What a randomized population run exercised, so each test can insist
/// its corner actually happened.
struct PopulationCoverage {
  std::size_t harvests = 0;
  std::size_t issues = 0;
  std::size_t split_buckets = 0;   ///< horizon fell inside an occupied bucket
  std::size_t past_due = 0;        ///< completion stamped before the cursor
  std::size_t beyond_ring = 0;     ///< issue gap longer than the ring span
  std::size_t retried_keys = 0;    ///< retry issues checked to re-send the key
  std::size_t ties = 0;            ///< adjacent issues sharing one `at`
};

// The ring spans 4096 buckets of 2^20 ns; anything further out goes
// through the far list, rescanned every half ring (~2.15 s).
constexpr std::int64_t kRingSpanNs = std::int64_t{4096} << 20;

/// Drive a population and the oracle through the same randomized
/// horizons and completions until `end`, asserting every harvest is
/// identical (order, keys and read coins included). `fine_steps` keeps
/// every step under 8 ms, so no harvest walks more than a few buckets.
PopulationCoverage drive_population(std::uint64_t seed,
                                    const TrafficConfig& traffic,
                                    std::size_t clients,
                                    const resilience::BackoffConfig& backoff,
                                    sim::SimTime end,
                                    bool fine_steps = false) {
  const sim::SimTime start = sim::SimTime::from_millis(250.0);
  const ZipfAliasSampler zipf(traffic.keyspace, traffic.zipf_theta);
  ClosedLoopPopulation population;
  population.reset(traffic, clients, backoff, nullptr, start);
  PopulationOracle oracle(traffic, clients, backoff, start);

  PopulationCoverage cov;
  sim::Rng rng(seed);
  std::vector<ClientIssue> got;
  std::vector<ClientIssue> in_flight;
  std::vector<sim::SimTime> last_done(clients, start);
  std::vector<std::int64_t> retry_key(clients, -1);
  sim::SimTime horizon = start;
  while (horizon < end) {
    // Mostly sub-bucket and epoch-sized steps, sometimes a jump across
    // more than the whole ring in one harvest.
    const double r = rng.next_double();
    const double step_ms = r < 0.4      ? rng.uniform(0.0, 0.9)
                           : fine_steps ? rng.uniform(1.0, 7.0)
                           : r < 0.995  ? rng.uniform(1.0, 60.0)
                                        : rng.uniform(2000.0, 5000.0);
    horizon = horizon + sim::Duration::from_millis(step_ms) +
              sim::Duration::from_nanos(rng.uniform_int(1, 999));
    cov.split_buckets += oracle.straddlers(start, horizon) > 0;

    got.clear();
    population.collect_due(horizon, zipf, got);
    const std::vector<ClientIssue> want = oracle.collect(horizon, zipf);
    EXPECT_EQ(got.size(), want.size()) << "harvest " << cov.harvests;
    if (got.size() != want.size()) return cov;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].at, want[i].at) << "harvest " << cov.harvests;
      EXPECT_EQ(got[i].client, want[i].client) << "harvest " << cov.harvests;
      EXPECT_EQ(got[i].key, want[i].key) << "harvest " << cov.harvests;
      EXPECT_EQ(got[i].is_read, want[i].is_read);
      if (i > 0 && got[i].at == got[i - 1].at) ++cov.ties;
      const ClientIssue& issue = got[i];
      if (issue.at.ns() - last_done[issue.client].ns() > kRingSpanNs) {
        ++cov.beyond_ring;
      }
      if (retry_key[issue.client] >= 0) {
        EXPECT_EQ(issue.key,
                  static_cast<std::uint64_t>(retry_key[issue.client]));
        ++cov.retried_keys;
        retry_key[issue.client] = -1;
      }
    }
    ++cov.harvests;
    cov.issues += got.size();
    in_flight.insert(in_flight.end(), got.begin(), got.end());

    // Settle most in-flight requests; the rest stay out a while and come
    // back later stamped near their (by then old) issue time.
    std::size_t keep = 0;
    for (const ClientIssue& issue : in_flight) {
      if (rng.bernoulli(0.2)) {
        in_flight[keep++] = issue;
        continue;
      }
      const double c = rng.next_double();
      const sim::SimTime when =
          c < 0.25 ? issue.at
          : c < 0.5
              ? horizon  // shared stamp: equal backoffs collide
              : issue.at + sim::Duration::from_millis(rng.uniform(0.0, 80.0));
      if (when.ns() < horizon.ns() - (std::int64_t{1} << 20)) ++cov.past_due;
      const double o = rng.next_double();
      const OutcomeKind outcome = o < 0.55   ? OutcomeKind::kServed
                                  : o < 0.75 ? OutcomeKind::kShed
                                  : o < 0.9  ? OutcomeKind::kFailed
                                             : OutcomeKind::kTimedOut;
      const std::uint64_t retries_before = population.retries();
      population.complete(issue.client, when, outcome);
      oracle.complete(issue.client, when, outcome);
      if (population.retries() != retries_before) {
        retry_key[issue.client] = static_cast<std::int64_t>(issue.key);
      }
      last_done[issue.client] = when;
    }
    in_flight.resize(keep);
  }
  return cov;
}

TrafficConfig population_traffic(std::size_t clients, double think_mean_s) {
  TrafficConfig traffic;
  traffic.clients = clients;
  traffic.arrival_rate_per_s = static_cast<double>(clients) / think_mean_s;
  traffic.read_fraction = 0.7;
  traffic.keyspace = 5000;
  traffic.zipf_theta = 0.9;
  traffic.seed = 77;
  return traffic;
}

TEST(ClosedLoopPopulation, MatchesBruteForceScanWithJitteredRetries) {
  // 5 s mean think time and backoffs capped at 8 s: plenty of gaps
  // outlive the ~4.3 s ring, and 40 s of sim time crosses the far-list
  // rescan point many times.
  resilience::BackoffConfig backoff;
  backoff.kind = resilience::BackoffKind::kExponential;
  backoff.base = sim::Duration::from_millis(10.0);
  backoff.cap = sim::Duration::from_seconds(8.0);
  backoff.jitter = 0.5;
  backoff.max_retries = 12;
  backoff.retry_failures = true;
  for (const std::uint64_t seed : {1ull, 2ull, 3ull, 4ull}) {
    SCOPED_TRACE(seed);
    const PopulationCoverage cov = drive_population(
        seed, population_traffic(300, 5.0), 300, backoff,
        sim::SimTime::from_seconds(40.0), /*fine_steps=*/seed == 4);
    EXPECT_GT(cov.issues, 1000u);
    EXPECT_GT(cov.split_buckets, 0u);
    EXPECT_GT(cov.past_due, 0u);
    EXPECT_GT(cov.beyond_ring, 0u);
    EXPECT_GT(cov.retried_keys, 0u);
  }
}

TEST(ClosedLoopPopulation, BreaksAtTiesByClientIndex) {
  // Unjittered fixed backoff: every shed stamped at the shared horizon
  // re-enters at the same instant, so harvests carry `at` ties.
  resilience::BackoffConfig backoff;
  backoff.kind = resilience::BackoffKind::kFixed;
  backoff.base = sim::Duration::from_millis(3.0);
  backoff.jitter = 0.0;
  backoff.max_retries = resilience::kUnlimitedRetries;
  const PopulationCoverage cov =
      drive_population(9, population_traffic(200, 0.5), 200, backoff,
                       sim::SimTime::from_seconds(10.0));
  EXPECT_GT(cov.ties, 0u);
  EXPECT_GT(cov.retried_keys, 0u);
  EXPECT_GT(cov.past_due, 0u);
}

TEST(ClosedLoopPopulation, RejectsDegenerateConfig) {
  ClosedLoopPopulation population;
  const TrafficConfig traffic = population_traffic(4, 1.0);
  resilience::BackoffConfig backoff;
  EXPECT_THROW(population.reset(traffic, 0, backoff, nullptr,
                                sim::SimTime::zero()),
               std::invalid_argument);
  backoff.base = sim::Duration::zero();
  EXPECT_THROW(population.reset(traffic, 4, backoff, nullptr,
                                sim::SimTime::zero()),
               std::invalid_argument);
}

}  // namespace
}  // namespace deepnote::cluster
