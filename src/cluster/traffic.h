// Open-loop traffic generation for the cluster: Poisson arrivals from
// independent client streams, Zipf object popularity, a fixed read/write
// mix, and a timeline of scheduled actions (attack on / attack off).
//
// Open-loop matters for availability numbers: real clients do not slow
// down because the storage got slow, so load keeps arriving at the
// configured rate while drives hang — exactly the regime where a parked
// pod turns into failed requests instead of a quietly longer queue.
//
// Determinism: each client owns a forked RNG stream and its own next
// arrival time; the runner merges streams by (time, client index). The
// same seed produces the same request sequence regardless of how trials
// are scheduled across worker threads.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "cluster/balancer.h"
#include "cluster/resilience/retry.h"
#include "cluster/slo.h"
#include "sim/fast_mod.h"
#include "sim/rng.h"

namespace deepnote::cluster {

/// YCSB-style approximate Zipf rank generator over [0, n). Rank 0 is the
/// hottest key; placement's key hash scatters ranks across nodes.
class ZipfGenerator {
 public:
  ZipfGenerator(std::uint64_t n, double theta);

  std::uint64_t next(sim::Rng& rng) const;
  std::uint64_t n() const { return n_; }
  double theta() const { return theta_; }

 private:
  std::uint64_t n_;
  double theta_;
  double zetan_;
  double zeta2_;
  double alpha_;
  double eta_;
};

/// Exact Zipf rank sampler via Vose's alias method: O(n) build, O(1)
/// per sample (one table lookup + one biased coin), no per-sample
/// normalization. At millions of keys this is what makes batch traffic
/// generation cheap enough to disappear next to the drive model; it is
/// also *exact* — each rank r is drawn with probability
/// (r+1)^-theta / zeta(n, theta) — where ZipfGenerator is the YCSB
/// approximation. Deterministic: the table depends only on (n, theta)
/// and each sample consumes exactly two RNG draws.
class ZipfAliasSampler {
 public:
  ZipfAliasSampler(std::uint64_t n, double theta);

  /// The two RNG draws of one sample, before the table lookup.
  struct Draw {
    std::uint64_t bucket;
    double coin;
  };

  /// next() split in two, next(rng) == resolve(draw(rng)): a batch can
  /// make all its draws in stream order, prefetch each bucket, and only
  /// then pay for the (cold, at millions of keys) table reads.
  Draw draw(sim::Rng& rng) const {
    const std::uint64_t bucket = mod_n_(rng.next_u64());
    return {bucket, rng.next_double()};
  }
  void prefetch(const Draw& d) const {
    __builtin_prefetch(&accept_[d.bucket]);
    __builtin_prefetch(&alias_[d.bucket]);
  }
  std::uint64_t resolve(const Draw& d) const {
    return d.coin < accept_[d.bucket] ? d.bucket : alias_[d.bucket];
  }
  std::uint64_t next(sim::Rng& rng) const { return resolve(draw(rng)); }

  std::uint64_t n() const { return n_; }
  double theta() const { return theta_; }
  /// Exact probability of rank r (for tests).
  double probability(std::uint64_t rank) const;

 private:
  std::uint64_t n_;
  sim::FastMod mod_n_;
  double theta_;
  double zetan_;
  std::vector<double> accept_;      ///< acceptance threshold per bucket
  std::vector<std::uint32_t> alias_;  ///< fallback rank per bucket
};

struct TrafficConfig {
  /// Aggregate offered load, split evenly across `clients` streams.
  double arrival_rate_per_s = 1000.0;
  sim::Duration duration = sim::Duration::from_seconds(60.0);
  double read_fraction = 0.9;
  std::size_t clients = 4;
  std::uint64_t keyspace = 20000;
  double zipf_theta = 0.99;
  std::uint64_t seed = 1;
};

/// One scheduled control action (start/stop an attack, drain a pod...).
/// Fired at the first arrival at or after `at`; the callback receives
/// the scheduled time.
struct TimelineAction {
  sim::SimTime at = sim::SimTime::zero();
  std::function<void(sim::SimTime)> fn;
};

struct TrafficReport {
  std::uint64_t requests = 0;
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
};

/// One request issue from a closed-loop client (already keyed and typed;
/// the drawing happened against the issuing client's own RNG stream).
struct ClientIssue {
  sim::SimTime at = sim::SimTime::zero();
  std::uint32_t client = 0;
  std::uint64_t key = 0;
  bool is_read = true;
};

/// A fixed population of closed-loop clients: each client issues one
/// request, waits for its outcome, then thinks for an exponential gap
/// before the next — so when the service slows down, offered load drops
/// with it (backpressure), instead of the open-loop regime where
/// arrivals keep coming at the configured rate.
///
/// Failed outcomes feed the retry loop this layer exists to study: the
/// client re-issues the same key after a BackoffConfig-shaped delay
/// (fixed / linear / exponential, with deterministic per-client jitter)
/// up to a retry cap, optionally gated by a cluster-wide RetryBudget —
/// which is exactly the retry-storm amplification loop the overload
/// experiment measures.
///
/// Deterministic: every client owns a forked RNG stream and draws its
/// key/read-coin at issue time; backoff jitter comes from a separate
/// per-client splitmix64 stream (so turning jitter on or off never
/// perturbs key draws). The request sequence depends only on
/// (seed, outcome timeline), never on batching.
///
/// Idle clients wait in one flat calendar queue keyed by next-issue
/// time: a ring of ~1 ms buckets, each an intrusive list threaded
/// through per-client arrays, plus a far list for issues beyond the
/// ring's span. collect_due walks only the buckets up to the round
/// horizon and sorts the harvest into canonical (at, client) order, so
/// a round over a large population costs O(due + buckets crossed)
/// instead of a full scan, and the order inside a bucket never shows.
class ClosedLoopPopulation {
 public:
  ClosedLoopPopulation() = default;

  /// (Re)seed `clients` streams from `traffic.seed`. Per-client think
  /// mean is clients / arrival_rate, so the aggregate no-load offered
  /// rate matches the open-loop configuration. `budget`, when non-null,
  /// must outlive the population and gates every retry (it is earned by
  /// fresh issues here too).
  void reset(const TrafficConfig& traffic, std::size_t clients,
             const resilience::BackoffConfig& backoff,
             resilience::RetryBudget* budget, sim::SimTime start);

  /// Append every client whose next issue falls before `horizon` to
  /// `out` (sorted by (at, client)) and mark them in flight. Their keys
  /// are drawn here, against each client's own stream.
  void collect_due(sim::SimTime horizon, const ZipfAliasSampler& zipf,
                   std::vector<ClientIssue>& out);

  /// Start loading what complete(client, ...) touches, so a caller
  /// settling a batch can overlap one client's cache misses with the
  /// work of the ones before it.
  void prefetch(std::uint32_t client) const {
    __builtin_prefetch(&clients_[client], 1);
    __builtin_prefetch(&at_ns_[client], 1);
    __builtin_prefetch(&next_[client], 1);
  }

  /// Report the outcome of `client`'s in-flight request at `when`.
  void complete(std::uint32_t client, sim::SimTime when, OutcomeKind outcome);

  std::size_t size() const { return clients_.size(); }
  /// Retry re-issues across the run (budget-approved ones only).
  std::uint64_t retries() const { return retries_; }
  const resilience::BackoffConfig& backoff() const { return backoff_; }

 private:
  struct Client {
    sim::Rng rng{0};
    std::uint64_t key = 0;      ///< current key (kept across retries)
    std::uint64_t jitter_state = 0;  ///< private splitmix64 stream
    std::uint32_t attempts = 0;      ///< retries spent on `key`
    std::uint8_t is_read = 1;
    std::uint8_t has_retry = 0;  ///< next issue re-sends `key`
  };

  // Calendar geometry: 2^20 ns (~1.05 ms) buckets, 4096 of them (~4.3 s,
  // about twice the overload cells' mean think time). Issues further out
  // wait on the far list, which is rescanned every half ring.
  static constexpr int kBucketShift = 20;
  static constexpr std::int64_t kRing = 4096;
  static constexpr std::uint32_t kNil = 0xffffffffu;

  std::int64_t bucket_of(std::int64_t ns) const {
    return (ns - origin_ns_) >> kBucketShift;
  }
  std::uint32_t& slot(std::int64_t bucket) {
    return heads_[static_cast<std::size_t>(bucket & (kRing - 1))];
  }
  void push_pending(std::uint32_t client, sim::SimTime at);
  /// Move every far-list client due before bucket `bucket + kRing` into
  /// the ring; the next rescan is due half a ring later.
  void rescan_far(std::int64_t bucket);

  std::vector<Client> clients_;
  std::vector<std::int64_t> at_ns_;   ///< next issue time of idle clients
  std::vector<std::uint32_t> next_;   ///< intrusive bucket/far-list link
  std::vector<std::uint32_t> heads_;  ///< kRing bucket heads
  std::uint32_t far_head_ = kNil;
  std::int64_t origin_ns_ = 0;
  std::int64_t cursor_ = 0;     ///< first bucket that may hold a client
  std::int64_t rescan_at_ = 0;  ///< bucket at which the far list is rescanned
  double think_mean_s_ = 0.0;
  double read_fraction_ = 1.0;
  resilience::BackoffConfig backoff_;
  resilience::RetryBudget* budget_ = nullptr;
  std::uint64_t retries_ = 0;
};

class TrafficRunner {
 public:
  TrafficRunner(Balancer& balancer, TrafficConfig config);

  const TrafficConfig& config() const { return config_; }

  /// Drive the full duration of traffic starting at `start`, recording
  /// every request into `slo`. Actions must be sorted by `at`.
  TrafficReport run(sim::SimTime start, SloTracker& slo,
                    std::vector<TimelineAction> actions = {});

 private:
  Balancer& balancer_;
  TrafficConfig config_;
};

}  // namespace deepnote::cluster
